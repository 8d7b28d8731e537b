package main

import (
	"math/rand/v2"
	"slices"

	"mtvec/internal/cluster"
	"mtvec/internal/sched"
	"mtvec/internal/workload"
)

// The seeded request generator. Every request a server sees comes from
// here, as a pure function of the workload seed: one seed always gives
// the same sequence, and any seed gives the same mix (points per sweep,
// the split between first touches and revisits, and the programs used),
// because the mix is fixed by the plan's structure and the seed only
// draws the axis values and the order.

// base is one sweep family: a run mode over a fixed program list. A
// sweep always stays inside one base; its points vary the axes.
type base struct {
	Name  string
	Req   cluster.RunRequest
	Multi bool // queue bases sweep contexts and policy as well as latency
}

func shorts(specs []*workload.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Short
	}
	return out
}

// soloBase is a single-program base.
func soloBase(short string) base {
	return base{Name: "solo-" + short, Req: cluster.RunRequest{Mode: "solo", Programs: []string{short}}}
}

// queueBases are the two job-queue bases: the ten Table 3 programs in
// the paper's queue order, and the vectorizable benchmark kernels.
func queueBases() []base {
	return []base{
		{Name: "queue-table3", Req: cluster.RunRequest{Mode: "queue", Programs: shorts(workload.QueueOrder())}, Multi: true},
		{Name: "queue-bench", Req: cluster.RunRequest{Mode: "queue", Programs: shorts(workload.BenchOrder())}, Multi: true},
	}
}

// pointID names one simulation point: a base and its axis values.
type pointID struct {
	Base int
	Axes cluster.PointAxes
}

// sweepPlan is one generated request.
type sweepPlan struct {
	Base     int
	Points   []cluster.PointAxes
	Fresh    int // points not requested before (in this epoch, for serve-warm)
	Revisits int // points requested before
}

// request is the wire form of the plan.
func (p *sweepPlan) request(bases []base) cluster.SweepRequest {
	return cluster.SweepRequest{Base: bases[p.Base].Req, Points: p.Points}
}

// --- serve-warm ---

// Universe shape: every base holds warmChunks sweeps' worth of fresh
// points, warmFresh per sweep, so every sweep but each base's first
// carries warmRevisit revisits and the revisit share is the same for
// every seed.
const (
	warmFresh   = 24
	warmRevisit = 12
	warmChunks  = 3
	warmPerBase = warmFresh * warmChunks
	warmLatMax  = 400
)

// warmUniverse is the serve-warm point set the store is filled with.
type warmUniverse struct {
	Bases  []base
	Points [][]cluster.PointAxes // per base, warmPerBase distinct points
}

func (u *warmUniverse) size() int { return len(u.Bases) * warmPerBase }

// newWarmUniverse draws the universe: every Table 3 and bench program
// solo over warmPerBase latencies, and both queue bases over contexts 2-4
// x every policy x 6 latencies.
func newWarmUniverse(seed uint64) *warmUniverse {
	rng := rand.New(rand.NewPCG(seed, 0x57a2))
	u := &warmUniverse{}
	for _, s := range append(workload.Specs(), workload.BenchSpecs()...) {
		u.Bases = append(u.Bases, soloBase(s.Short))
	}
	u.Bases = append(u.Bases, queueBases()...)
	for _, b := range u.Bases {
		var pts []cluster.PointAxes
		if !b.Multi {
			for _, lat := range drawDistinct(rng, warmPerBase, warmLatMax) {
				pts = append(pts, cluster.PointAxes{Latency: lat})
			}
		} else {
			per := warmPerBase / (3 * len(sched.Names()))
			for ctx := 2; ctx <= 4; ctx++ {
				for _, pol := range sched.Names() {
					for _, lat := range drawDistinct(rng, per, warmLatMax) {
						pts = append(pts, cluster.PointAxes{Contexts: ctx, Latency: lat, Policy: pol})
					}
				}
			}
		}
		u.Points = append(u.Points, pts)
	}
	return u
}

// drawDistinct draws n distinct values from [1, max].
func drawDistinct(rng *rand.Rand, n, max int) []int {
	perm := rng.Perm(max)
	out := make([]int, n)
	for i := range out {
		out[i] = perm[i] + 1
	}
	return out
}

// pickDistinct draws k distinct indices from [0, n), k <= n.
func pickDistinct(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		i := rng.IntN(n)
		if !slices.Contains(out, i) {
			out = append(out, i)
		}
	}
	return out
}

// warmEpoch plans one pass over the universe against a fresh server:
// every point is first-touched exactly once, in a seeded order, and
// each base's later sweeps revisit points its earlier sweeps touched.
func (u *warmUniverse) warmEpoch(seed uint64, epoch int) []sweepPlan {
	rng := rand.New(rand.NewPCG(seed, 0xe90c^uint64(epoch)))
	perms := make([][]int, len(u.Bases))
	var order []int
	for b := range u.Bases {
		perms[b] = rng.Perm(warmPerBase)
		for c := 0; c < warmChunks; c++ {
			order = append(order, b)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	next := make([]int, len(u.Bases)) // chunks issued per base
	plans := make([]sweepPlan, 0, len(order))
	for _, b := range order {
		c := next[b]
		next[b]++
		p := sweepPlan{Base: b}
		for _, i := range perms[b][c*warmFresh : (c+1)*warmFresh] {
			p.Points = append(p.Points, u.Points[b][i])
		}
		p.Fresh = warmFresh
		if c > 0 {
			touched := perms[b][:c*warmFresh]
			for _, k := range pickDistinct(rng, len(touched), warmRevisit) {
				p.Points = append(p.Points, u.Points[b][touched[k]])
			}
			p.Revisits = warmRevisit
		}
		plans = append(plans, p)
	}
	return plans
}

// --- sweep-cold ---

const (
	coldPoints   = 8    // points per sweep
	coldRevisit  = 2    // revisits per sweep, once the base has history
	coldLatMin   = 10   // memory latency range for fresh points
	coldLatMax   = 1500 //
	coldSampleEv = 32   // about one fresh point in this many is re-checked
	coldSampleN  = 48   // at most this many points are re-checked per run
)

// coldBlock is the fixed multiset of bases every block of sweeps draws,
// in a seeded order: the long-vector gemm and spmv kernels twice, the
// other kernels and four Table 3 programs once, and the bench-kernel
// job queue. The ten-program Table 3 queue is left out: one of its
// sweeps holds both one-slot worker gates for a tenth of a second, and
// the suite already runs it.
func coldBlock() []base {
	var out []base
	for _, s := range []string{"gm", "sp", "gm", "sp", "ax", "dp", "s1", "s2", "bs", "tf", "sw", "hy", "su"} {
		out = append(out, soloBase(s))
	}
	return append(out, queueBases()[1])
}

// coldGen generates the sweep-cold request stream lazily: each sweep
// has coldPoints points, coldRevisit of them revisiting points this run
// already requested for the same base, the rest fresh.
type coldGen struct {
	rng    *rand.Rand
	bases  []base
	ids    map[string]int // base name -> index in bases
	queue  []int          // the rest of the current block
	issued [][]cluster.PointAxes
	used   []map[cluster.PointAxes]bool
	seed   uint64
	n      int // sweeps generated
}

func newColdGen(seed uint64) *coldGen {
	g := &coldGen{rng: rand.New(rand.NewPCG(seed, 0xc01d)), ids: map[string]int{}, seed: seed}
	for _, b := range coldBlock() {
		if _, ok := g.ids[b.Name]; !ok {
			g.ids[b.Name] = len(g.bases)
			g.bases = append(g.bases, b)
		}
	}
	g.issued = make([][]cluster.PointAxes, len(g.bases))
	g.used = make([]map[cluster.PointAxes]bool, len(g.bases))
	for i := range g.used {
		g.used[i] = map[cluster.PointAxes]bool{}
	}
	return g
}

// next returns the next sweep of the stream.
func (g *coldGen) next() sweepPlan {
	if len(g.queue) == 0 {
		for _, b := range coldBlock() {
			g.queue = append(g.queue, g.ids[b.Name])
		}
		g.rng.Shuffle(len(g.queue), func(i, j int) { g.queue[i], g.queue[j] = g.queue[j], g.queue[i] })
	}
	b := g.queue[0]
	g.queue = g.queue[1:]
	g.n++
	p := sweepPlan{Base: b}
	if hist := g.issued[b]; len(hist) > 0 {
		for _, k := range pickDistinct(g.rng, len(hist), min(coldRevisit, len(hist))) {
			p.Points = append(p.Points, hist[k])
			p.Revisits++
		}
	}
	for len(p.Points) < coldPoints {
		pt := g.fresh(g.bases[b].Multi)
		if g.used[b][pt] {
			continue
		}
		g.used[b][pt] = true
		p.Points = append(p.Points, pt)
		p.Fresh++
	}
	g.issued[b] = append(g.issued[b], p.Points[p.Revisits:]...)
	return p
}

// fresh draws a point's axes: solo points sweep latency and, on
// multi-context machines, the switch policy; queue points always run 2-4
// contexts.
func (g *coldGen) fresh(multi bool) cluster.PointAxes {
	lat := coldLatMin + g.rng.IntN(coldLatMax-coldLatMin+1)
	ctx := 1 + g.rng.IntN(4)
	if multi {
		ctx = 2 + g.rng.IntN(3)
	}
	pt := cluster.PointAxes{Latency: lat}
	if ctx > 1 {
		pt.Contexts = ctx
		pol := sched.Names()
		pt.Policy = pol[g.rng.IntN(len(pol))]
	}
	return pt
}

// sampled reports whether the fresh point at position j of sweep i is in
// the run's seeded re-check sample.
func (g *coldGen) sampled(i, j int) bool {
	h := rand.New(rand.NewPCG(g.seed^0x5a3f1e, uint64(i)<<8|uint64(j)))
	return h.IntN(coldSampleEv) == 0
}
