package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mtvec"
	"mtvec/internal/cluster"
	"mtvec/internal/experiments"
	"mtvec/internal/workload"
)

// goldenScale is the scale docs/GOLDEN.txt pins; warmupScale runs the
// set-up's warm-up pass of the suite.
const (
	goldenScale = workload.DefaultScale
	warmupScale = 1e-5
)

// suiteInst is suite-golden: the full experiment suite, cold, in one
// fresh Env with nproc jobs, rendered and compared byte for byte with
// docs/GOLDEN.txt.
type suiteInst struct {
	o      *options
	tr     *tracer
	golden []byte
	env    *experiments.Env
	insts  *instCounter
}

// setupSuite reads the golden output, warms every code path with a pass
// of the suite at a tiny scale in a throwaway Env, and builds the fresh
// Env the timed phase runs in.
func setupSuite(o *options, tr *tracer) (instance, error) {
	golden, err := os.ReadFile(filepath.Join(o.root, "docs", "GOLDEN.txt"))
	if err != nil {
		return nil, err
	}
	warm := experiments.NewEnv(warmupScale)
	if _, _, err := experiments.RunSuite(warm, experiments.All(), o.jobs); err != nil {
		return nil, fmt.Errorf("warm-up suite: %w", err)
	}
	s := &suiteInst{o: o, tr: tr, golden: golden, env: experiments.NewEnv(goldenScale), insts: &instCounter{}}
	// The counter never hits and stores nothing; it only sees each fresh
	// simulation's Report to sum simulated instructions.
	s.env.SetStore(s.insts)
	return s, nil
}

func (s *suiteInst) close() {}

// timed runs the suite once, and again in a fresh Env while the timed
// phase has time left. The suite is the workload's one request: its
// time is the request latency. The experiments' point tasks (each
// declared sweep point, prefetched concurrently) are logged, not
// reported: their latency is mostly the wait for a gate slot, which
// depends on scheduling more than on the code.
func (s *suiteInst) timed() (*phase, error) {
	p := &phase{gateWidth: s.o.jobs, fixedWork: true}
	var tasks []time.Duration
	deadline := time.Now().Add(s.o.seconds)
	mem := startMem()
	suites := 0
	for ; suites == 0 || time.Now().Before(deadline); suites++ {
		env := s.env
		if suites > 0 {
			env = experiments.NewEnv(goldenScale)
			s.insts = &instCounter{}
			env.SetStore(s.insts)
		}
		wall, err := s.once(env, s.tr, p, &tasks)
		if err != nil {
			return nil, err
		}
		p.lat = append(p.lat, wall)
	}
	alloc, peak := mem.finish()
	// One suite's worth, however many ran.
	p.alloc, p.peak = alloc/uint64(suites), peak
	p.wall /= time.Duration(suites)
	p.points /= int64(suites)
	p.simInsts /= int64(suites)
	p.gateBusy /= time.Duration(suites)
	p.notes = append(p.notes, fmt.Sprintf("%d suite(s); experiment point tasks: %s", suites, latencySummary(durationsMS(tasks))))
	return p, nil
}

// once runs and checks one suite and returns its time.
func (s *suiteInst) once(env *experiments.Env, tr *tracer, p *phase, tasks *[]time.Duration) (time.Duration, error) {
	var mu sync.Mutex
	root := tr.begin("experiments.suite", "suite", 0, "suite", false)
	exps := experiments.All()
	for i := range exps {
		exps[i] = s.wrap(exps[i], tr, root.ref(), &mu, tasks)
	}
	start := time.Now()
	busy0 := env.BusyTime()
	results, _, err := experiments.RunSuiteContext(context.Background(), env, exps, s.o.jobs)
	if err != nil {
		return 0, fmt.Errorf("suite: %w", err)
	}
	// Render each experiment on its own and compare it with its slice of
	// GOLDEN.txt, so a mismatch names the experiment it is in.
	var out bytes.Buffer
	off := 0
	for i, res := range results {
		a := tr.begin("report.render", "suite", root.id(), "suite", false)
		a.tag(exps[i].ID)
		out.Reset()
		err := mtvec.RenderResult(&out, res)
		out.WriteByte('\n')
		a.end()
		if err != nil {
			return 0, fmt.Errorf("render %s: %w", exps[i].ID, err)
		}
		p.attempted++
		end := off + out.Len()
		if end > len(s.golden) || !bytes.Equal(out.Bytes(), s.golden[off:end]) {
			p.fail(1, "%s: rendered output differs from docs/GOLDEN.txt at byte %d", exps[i].ID, off)
		}
		off = end
	}
	if off != len(s.golden) {
		p.fail(1, "suite output is %d bytes, docs/GOLDEN.txt %d", off, len(s.golden))
	}
	wall := time.Since(start)
	root.end()
	p.wall += wall
	p.gateBusy += env.BusyTime() - busy0
	sims := env.Simulations()
	p.points += sims
	p.mix.Sim += sims
	p.mix.Store += env.StoreHits()
	p.simInsts += s.insts.insts.Load()
	if got := s.insts.sims.Load(); got != sims {
		p.fail(1, "instruction counter saw %d of %d simulations", got, sims)
	}
	return wall, nil
}

// wrap times an experiment's point tasks (into tasks) and its Run with
// spans.
func (s *suiteInst) wrap(e experiments.Experiment, tr *tracer, root spanRef, mu *sync.Mutex, tasks *[]time.Duration) experiments.Experiment {
	id := e.ID
	if points := e.Points; points != nil {
		e.Points = func(env *experiments.Env) []func() error {
			ts := points(env)
			for i, task := range ts {
				ts[i] = func() error {
					a := tr.begin("experiments.point", "suite", root.id, root.req, false)
					a.tag(id)
					start := time.Now()
					err := task()
					d := time.Since(start)
					a.end()
					mu.Lock()
					*tasks = append(*tasks, d)
					mu.Unlock()
					return err
				}
			}
			return ts
		}
	}
	run := e.Run
	e.Run = func(env *experiments.Env) (*experiments.Result, error) {
		a := tr.begin("experiments.run", "suite", root.id, root.req, false)
		a.tag(id)
		defer a.end()
		return run(env)
	}
	return e
}

// probe runs the layer probes at GOLDEN's scale on suite-shaped points:
// every Table 3 program solo at 50 cycles, the ten-program job queue at
// 2 and 4 contexts, and a Figure 4 style latency sweep of tf.
func (s *suiteInst) probe(v layerValues) error {
	in := probeInput{
		scale:    goldenScale,
		programs: append(shorts(workload.Specs()), shorts(workload.BenchSpecs())...),
		sweep: cluster.SweepRequest{
			Base:      cluster.RunRequest{Mode: "solo", Programs: []string{"tf"}},
			Latencies: []int{1, 20, 50, 100},
		},
	}
	for _, p := range shorts(workload.Specs()) {
		in.reqs = append(in.reqs, cluster.RunRequest{Mode: "solo", Programs: []string{p}, Latency: 50})
	}
	for _, ctx := range []int{2, 4} {
		in.reqs = append(in.reqs, cluster.RunRequest{Mode: "queue", Programs: shorts(workload.QueueOrder()), Contexts: ctx, Latency: 50})
	}
	return runProbes(s.o, s.tr, in, v)
}
