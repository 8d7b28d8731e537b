package main

import (
	"reflect"
	"testing"

	"mtvec/internal/cluster"
)

// warmMix is the seed-independent shape of one serve-warm epoch.
type warmMix struct {
	Sweeps, Fresh, Revisits int
	PerSweep                map[int]int    // points per sweep -> sweeps
	PerBase                 map[string]int // base name -> sweeps
}

func warmEpochMix(t *testing.T, u *warmUniverse, plans []sweepPlan) warmMix {
	t.Helper()
	m := warmMix{PerSweep: map[int]int{}, PerBase: map[string]int{}}
	touched := map[pointID]bool{}
	for i, p := range plans {
		m.Sweeps++
		m.Fresh += p.Fresh
		m.Revisits += p.Revisits
		m.PerSweep[len(p.Points)]++
		m.PerBase[u.Bases[p.Base].Name]++
		for j, pt := range p.Points {
			id := pointID{p.Base, pt}
			if j < p.Fresh {
				if touched[id] {
					t.Fatalf("sweep %d: fresh point %+v was touched before", i, id)
				}
				touched[id] = true
			} else if !touched[id] {
				t.Fatalf("sweep %d: revisit %+v of a point no earlier sweep touched", i, id)
			}
		}
	}
	if len(touched) != u.size() {
		t.Fatalf("epoch touched %d of %d universe points", len(touched), u.size())
	}
	return m
}

func TestWarmSameSeedSameSequence(t *testing.T) {
	a, b := newWarmUniverse(7), newWarmUniverse(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed drew two universes")
	}
	for epoch := 0; epoch < 3; epoch++ {
		if !reflect.DeepEqual(a.warmEpoch(7, epoch), b.warmEpoch(7, epoch)) {
			t.Fatalf("epoch %d: one seed gave two request sequences", epoch)
		}
	}
}

func TestWarmOtherSeedSameMix(t *testing.T) {
	u1, u2 := newWarmUniverse(1), newWarmUniverse(2)
	if reflect.DeepEqual(u1.Points, u2.Points) {
		t.Fatal("seeds 1 and 2 drew the same universe")
	}
	p1, p2 := u1.warmEpoch(1, 0), u2.warmEpoch(2, 0)
	if reflect.DeepEqual(p1, p2) {
		t.Fatal("seeds 1 and 2 gave the same request sequence")
	}
	m1, m2 := warmEpochMix(t, u1, p1), warmEpochMix(t, u2, p2)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("mix differs between seeds:\n%+v\n%+v", m1, m2)
	}
	checkQuarter(t, m1.Fresh, m1.Revisits)
}

// coldMix is the seed-independent shape of a sweep-cold stream prefix.
type coldMix struct {
	Fresh, Revisits int
	PerSweep        map[int]int
	PerBase         map[string]int
}

func coldStreamMix(t *testing.T, g *coldGen, sweeps int) ([]sweepPlan, coldMix) {
	t.Helper()
	m := coldMix{PerSweep: map[int]int{}, PerBase: map[string]int{}}
	seen := map[pointID]bool{}
	var plans []sweepPlan
	for i := 0; i < sweeps; i++ {
		p := g.next()
		plans = append(plans, p)
		m.Fresh += p.Fresh
		m.Revisits += p.Revisits
		m.PerSweep[len(p.Points)]++
		m.PerBase[g.bases[p.Base].Name]++
		within := map[cluster.PointAxes]bool{}
		for j, pt := range p.Points {
			id := pointID{p.Base, pt}
			if within[pt] {
				t.Fatalf("sweep %d repeats point %+v", i, pt)
			}
			within[pt] = true
			if j < p.Revisits {
				if !seen[id] {
					t.Fatalf("sweep %d: revisit %+v of a point never requested", i, id)
				}
			} else if seen[id] {
				t.Fatalf("sweep %d: fresh point %+v was requested before", i, id)
			}
		}
		for _, pt := range p.Points {
			seen[pointID{p.Base, pt}] = true
		}
	}
	return plans, m
}

func TestColdSameSeedSameSequence(t *testing.T) {
	n := 10 * len(coldBlock())
	a, _ := coldStreamMix(t, newColdGen(3), n)
	b, _ := coldStreamMix(t, newColdGen(3), n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	g1, g2 := newColdGen(3), newColdGen(3)
	for i := 0; i < 1000; i++ {
		if g1.sampled(i, 5) != g2.sampled(i, 5) {
			t.Fatal("one seed gave two re-check samples")
		}
	}
}

func TestColdOtherSeedSameMix(t *testing.T) {
	n := 10 * len(coldBlock())
	p1, m1 := coldStreamMix(t, newColdGen(1), n)
	p2, m2 := coldStreamMix(t, newColdGen(2), n)
	if reflect.DeepEqual(p1, p2) {
		t.Fatal("seeds 1 and 2 gave the same request sequence")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("mix differs between seeds:\n%+v\n%+v", m1, m2)
	}
	if m1.PerSweep[coldPoints] != n {
		t.Fatalf("points per sweep: %v, want %d for every sweep", m1.PerSweep, coldPoints)
	}
	checkQuarter(t, m1.Fresh, m1.Revisits)
}

// checkQuarter asserts that about a quarter of the points are revisits.
func checkQuarter(t *testing.T, fresh, revisits int) {
	t.Helper()
	if share := float64(revisits) / float64(fresh+revisits); share < 0.2 || share > 0.3 {
		t.Fatalf("revisits %d of %d points (%.2f): not about a quarter", revisits, fresh+revisits, share)
	}
}
