package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/prog"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
)

// shapediff_test.go is a differential harness over seeded-random
// machine shapes, policies, context counts, latencies, stop rules and
// thread-supply modes. The fast-forward equivalence tests elsewhere use
// the default shape only; here the event-driven clock skip must match
// cycle-by-cycle stepping on every randomized configuration.

// diffPoint is one randomized configuration. attach is deterministic
// and re-invokable: calling it on two machines installs byte-identical
// instruction supplies, so both runs being compared see the same
// input.
type diffPoint struct {
	name   string
	cfg    Config
	stop   Stop
	attach func(m *Machine) error
	// spans captures the run's spans into Report.Spans through a
	// SpanRecorder, as the session's WithSpans does.
	spans bool
}

// randPoint derives a configuration from seed. The space covers the
// three machine-shape presets with mutated latencies, vector lengths
// and bank ports, all four switch policies, 1–4 contexts, dual-scalar
// mode, issue widths, both engine modes (fast-forward and
// cycle-stepped), the three thread-supply modes, and every stop rule.
// A few points are deliberately out of shape (VLen below the streamed
// vector lengths) so the error path is compared too.
func randPoint(seed int64) diffPoint {
	r := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	archName := "c3400"
	switch r.Intn(4) {
	case 1:
		cfg.Spec = arch.VP2000()
		archName = "vp2000"
	case 2:
		cfg.Spec = arch.CrayLikePorts()
		archName = "cray"
	}
	maxCtx := cfg.Spec.MaxContexts
	if maxCtx > 4 {
		maxCtx = 4
	}
	cfg.Contexts = 1 + r.Intn(maxCtx)
	policy := sched.Names()[r.Intn(len(sched.Names()))]
	cfg.Policy = sched.ByName(policy)
	cfg.Mem.Latency = []int{1, 10, 30, 50, 70, 100}[r.Intn(6)]
	cfg.Mem.ScalarLatency = []int{0, 4, 8}[r.Intn(3)]
	xbar := 1 + r.Intn(3)
	cfg.Lat.ReadXbar, cfg.Lat.WriteXbar = xbar, xbar
	if r.Intn(4) == 0 {
		cfg.RegFile = cfg.RegFile.Normalize()
		cfg.BankReadPorts = 1 + r.Intn(2)
	}
	if r.Intn(20) == 0 {
		// Out of shape: the streams carry 128-element vectors, so a
		// 64-element register file errors the run.
		cfg.RegFile = cfg.RegFile.Normalize()
		cfg.VLen = 64
	}
	if cfg.Contexts == 2 && r.Intn(4) == 0 {
		cfg.DualScalar = true
	}
	if cfg.Contexts > 1 && r.Intn(5) == 0 {
		cfg.IssueWidth = 2
	}
	cfg.DisableFastForward = r.Intn(5) == 0
	spans := r.Intn(3) == 0
	cfg.ProgressStride = []Cycle{256, 1024, 4096}[r.Intn(3)]

	// Per-context supply parameters, captured as values so attach can
	// rebuild identical fresh streams for each machine it is called on.
	variants := make([]int, cfg.Contexts)
	reps := make([]int, cfg.Contexts)
	for i := range variants {
		variants[i] = r.Intn(3)
		reps[i] = 2 + r.Intn(6)
	}

	var stop Stop
	mode := r.Intn(3)
	if cfg.Contexts == 1 && mode == 1 {
		mode = 0
	}
	var attach func(m *Machine) error
	switch mode {
	case 0: // dedicated stream per context
		attach = func(m *Machine) error {
			for i := 0; i < cfg.Contexts; i++ {
				if err := m.SetThreadStream(i, fmt.Sprintf("mix%d", i), mixedStream(variants[i], reps[i])); err != nil {
					return err
				}
			}
			return nil
		}
	case 1: // primary + restarting companions (Section 4.1 shape)
		stop.Thread0Complete = true
		attach = func(m *Machine) error {
			if err := m.SetThreadStream(0, "primary", mixedStream(variants[0], reps[0])); err != nil {
				return err
			}
			for i := 1; i < cfg.Contexts; i++ {
				i := i
				err := m.SetThread(i, Repeat("comp", func() *prog.Stream {
					return mixedStream(variants[i], reps[i])
				}))
				if err != nil {
					return err
				}
			}
			return nil
		}
	default: // shared job queue (Section 7 shape)
		attach = func(m *Machine) error {
			q := NewJobQueue()
			for i := 0; i < cfg.Contexts+1; i++ {
				i := i
				q.Add(fmt.Sprintf("job%d", i), func() *prog.Stream {
					return mixedStream(variants[i%len(variants)], reps[i%len(reps)])
				})
			}
			src := q.Source()
			for i := 0; i < cfg.Contexts; i++ {
				if err := m.SetThread(i, src); err != nil {
					return err
				}
			}
			return nil
		}
	}
	switch r.Intn(6) {
	case 0:
		stop.MaxCycles = Cycle(500 + r.Intn(4000))
	case 1:
		if !stop.Thread0Complete {
			stop.MaxThread0Insts = int64(10 + r.Intn(40))
		}
	}
	name := fmt.Sprintf("seed%d/%s/ctx%d/%s/lat%d", seed, archName, cfg.Contexts, policy, cfg.Mem.Latency)
	return diffPoint{name: name, cfg: cfg, stop: stop, attach: attach, spans: spans}
}

// diffResult is everything a run observably produces.
type diffResult struct {
	rep      *stats.Report
	rendered string // fmt-rendered Report (byte-identity witness)
	log      *eventLog
	err      error
}

// runPoint runs pt with the clock skip on (disableFF false) or off.
func runPoint(t *testing.T, pt diffPoint, disableFF bool) diffResult {
	t.Helper()
	log := &eventLog{}
	cfg := pt.cfg
	cfg.DisableFastForward = disableFF
	cfg.Observers = []Observer{log}
	var spans *SpanRecorder
	if pt.spans {
		spans = &SpanRecorder{}
		cfg.Observers = append(cfg.Observers, spans)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", pt.name, err)
	}
	if err := pt.attach(m); err != nil {
		t.Fatalf("%s: attach: %v", pt.name, err)
	}
	rep, err := m.Run(pt.stop)
	if err != nil {
		return diffResult{err: err, log: log}
	}
	if spans != nil {
		rep.Spans = spans.Spans
	}
	return diffResult{rep: rep, rendered: fmt.Sprintf("%#v", *rep), log: log}
}

// TestRandomShapeFastForwardEquivalence runs 208 randomized
// configurations with the clock skip on and off. Both runs must fail
// identically. Where Config.DisableFastForward promises equivalence —
// single-context machines — the rendered Reports must be byte-identical
// and the observer event streams value-identical. On multi-context
// machines the skip may pass a bank-port window that stepping would
// have used, so timing may differ; but a run to completion must still
// do the same work.
func TestRandomShapeFastForwardEquivalence(t *testing.T) {
	const numConfigs = 208
	for seed := int64(0); seed < numConfigs; seed++ {
		pt := randPoint(seed)
		ff := runPoint(t, pt, false)
		step := runPoint(t, pt, true)
		if (ff.err == nil) != (step.err == nil) {
			t.Fatalf("%s: fast-forward err = %v, stepped err = %v", pt.name, ff.err, step.err)
		}
		if ff.err != nil {
			if ff.err.Error() != step.err.Error() {
				t.Errorf("%s: fast-forward err %q != stepped err %q", pt.name, ff.err, step.err)
			}
			continue
		}
		if pt.cfg.Contexts > 1 {
			if pt.stop == (Stop{}) {
				type work struct{ insts, vops, arith, mem int64 }
				wf := work{ff.rep.Insts, ff.rep.VectorOps, ff.rep.VectorArithOps, ff.rep.MemRequests}
				ws := work{step.rep.Insts, step.rep.VectorOps, step.rep.VectorArithOps, step.rep.MemRequests}
				if wf != ws {
					t.Errorf("%s: fast-forward changed the work done: ff %+v, stepped %+v", pt.name, wf, ws)
				}
			}
			continue
		}
		if ff.rendered != step.rendered {
			t.Errorf("%s: fast-forward changed the report:\nff:   %s\nstep: %s", pt.name, ff.rendered, step.rendered)
		}
		if !reflect.DeepEqual(ff.log, step.log) {
			t.Errorf("%s: fast-forward changed the event stream:\nff:   %+v\nstep: %+v", pt.name, ff.log, step.log)
		}
	}
}
