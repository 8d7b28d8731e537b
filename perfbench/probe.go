package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"mtvec"
	"mtvec/internal/cluster"
	"mtvec/internal/core"
	"mtvec/internal/experiments"
	"mtvec/internal/kernel"
	"mtvec/internal/prog"
	"mtvec/internal/sched"
	"mtvec/internal/session"
	"mtvec/internal/stats"
	"mtvec/internal/store"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

// The layer probes time each internal/ module's exported functions
// directly, on inputs taken from the workload (its scale, its programs,
// a sample of its points and one of its sweeps), after the traced timed
// phase. They give the per-layer unit costs the live spans cannot reach
// from outside: a machine run, a build, a key derivation, a store read.

// probeInput is what a workload hands the probes.
type probeInput struct {
	scale    float64
	programs []string             // programs to build
	reqs     []cluster.RunRequest // sample points
	sweep    cluster.SweepRequest // one sweep, for the HTTP and routing probes
}

// probeRuns is how often each repeated probe runs, and probeSample how
// many sample points a workload hands the probes; medians are reported.
const (
	probeRuns   = 5
	probeSample = 24
)

// timeit runs fn inside a probe span and returns its duration.
func timeit(tr *tracer, name string, fn func()) time.Duration {
	a := tr.begin(name, "probe", 0, "probe", true)
	start := time.Now()
	fn()
	d := time.Since(start)
	a.end()
	return d
}

func medianD(ds []time.Duration) float64 {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return median(f)
}

// runProbes runs every probe and stores the per-layer values.
func runProbes(o *options, tr *tracer, in probeInput, v layerValues) error {
	root := tr.begin("probe.all", "probe", 0, "probe", false)
	defer root.end()
	ws, err := probeBuilds(tr, in, v)
	if err != nil {
		return err
	}
	if err := probeCompile(tr, in.scale, v); err != nil {
		return err
	}
	reps, err := probeSession(tr, in, v)
	if err != nil {
		return err
	}
	if err := probeCore(tr, in, ws, reps, v); err != nil {
		return err
	}
	dir := filepath.Join(o.work, "probe-store")
	if err := probeStore(tr, dir, in, reps, v); err != nil {
		return err
	}
	return probeHTTP(o, tr, dir, in, v)
}

// probeBuilds builds each program fresh (workload.build) and predecodes
// its trace (trace.predecode).
func probeBuilds(tr *tracer, in probeInput, v layerValues) (map[string]*workload.Workload, error) {
	ws := map[string]*workload.Workload{}
	var builds, decodes []time.Duration
	var insts int
	for _, p := range in.programs {
		spec := workload.ByShort(p)
		if spec == nil {
			return nil, fmt.Errorf("unknown program %q", p)
		}
		var w *workload.Workload
		var err error
		builds = append(builds, timeit(tr, "workload.build", func() { w, err = spec.Build(in.scale) }))
		if err != nil {
			return nil, err
		}
		var dec []prog.DecodedInst
		decodes = append(decodes, timeit(tr, "trace.predecode", func() { dec = w.Trace.Decoded() }))
		insts += len(dec)
		ws[p] = w
	}
	v["workload.build_ms"] = medianD(builds) / 1e6
	v["workload.builds"] = float64(len(builds))
	v["trace.predecode_ms"] = medianD(decodes) / 1e6
	v["trace.insts"] = float64(insts)
	return ws, nil
}

// probeKernel is a long-vector kernel in the shape of the bench suite's
// gemm and spmv inner loops: a dense multiply-accumulate and a gathered
// one, plus the scalar setup loop every program carries.
func probeKernel() *kernel.Kernel {
	a := &kernel.Array{Name: "a", Base: 0x10_0000, Stride: 8}
	b := &kernel.Array{Name: "b", Base: 0x20_0000, Stride: 8}
	x := &kernel.Array{Name: "x", Base: 0x30_0000, Stride: 8}
	col := &kernel.Array{Name: "col", Base: 0x40_0000, Stride: 8}
	return &kernel.Kernel{Name: "probe", Units: []kernel.Unit{
		&kernel.VectorLoop{Name: "dense", Body: []kernel.Stmt{
			{Reduce: "acc", E: &kernel.Bin{Op: kernel.Mul, L: &kernel.Ref{Arr: a}, R: &kernel.Ref{Arr: b}}},
		}},
		&kernel.VectorLoop{Name: "gather", Body: []kernel.Stmt{
			{Reduce: "acc", E: &kernel.Bin{Op: kernel.Mul, L: &kernel.Ref{Arr: a}, R: &kernel.Gather{Data: x, Index: col}}},
		}},
		&kernel.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 2, FPOps: 1},
	}}
}

// probeCompile times vcomp.Compile on the probe kernel and trace
// synthesis of a schedule sized by the workload scale.
func probeCompile(tr *tracer, scale float64, v layerValues) error {
	var compiles, traces []time.Duration
	for i := 0; i < probeRuns; i++ {
		var c *vcomp.Compiled
		var err error
		compiles = append(compiles, timeit(tr, "vcomp.compile", func() { c, err = vcomp.Compile(probeKernel()) }))
		if err != nil {
			return err
		}
		n := max(int64(200_000*scale/workload.DefaultScale), 64)
		schedule := []vcomp.Invocation{
			{Unit: c.UnitIndex("setup"), N: 64},
			{Unit: c.UnitIndex("dense"), N: n},
			{Unit: c.UnitIndex("gather"), N: n},
		}
		traces = append(traces, timeit(tr, "vcomp.trace", func() { _, err = c.Trace(schedule) }))
		if err != nil {
			return err
		}
	}
	v["vcomp.compile_us"] = medianD(compiles) / 1e3
	v["vcomp.trace_ms"] = medianD(traces) / 1e6
	return nil
}

// probeSession resolves each sample point (cluster.resolve), derives
// its persist key (session.key), simulates it once and reads it back
// from the memo (session.memo_hit). It returns the simulated reports.
func probeSession(tr *tracer, in probeInput, v layerValues) ([]*stats.Report, error) {
	env := experiments.NewEnv(in.scale)
	ses := session.New()
	var resolves, keys, hits []time.Duration
	reps := make([]*stats.Report, len(in.reqs))
	for i, rq := range in.reqs {
		if _, err := cluster.ResolveSpec(env, rq); err != nil { // builds once, untimed
			return nil, err
		}
		var spec mtvec.RunSpec
		var err error
		resolves = append(resolves, timeit(tr, "cluster.resolve", func() { spec, err = cluster.ResolveSpec(env, rq) }))
		if err != nil {
			return nil, err
		}
		var ok bool
		keys = append(keys, timeit(tr, "session.key", func() { _, ok = ses.PersistKey(spec) }))
		if !ok {
			return nil, fmt.Errorf("point %+v has no persist key", rq)
		}
		if reps[i], err = ses.Run(context.Background(), spec); err != nil {
			return nil, err
		}
		var src session.Source
		hits = append(hits, timeit(tr, "session.memo_hit", func() { _, src, err = ses.RunTracked(context.Background(), spec) }))
		if err != nil {
			return nil, err
		}
		if src != session.SourceMemo {
			return nil, fmt.Errorf("memo probe of %+v answered from %v", rq, src)
		}
	}
	v["cluster.resolve_us"] = medianD(resolves) / 1e3
	v["session.key_us"] = medianD(keys) / 1e3
	v["session.memo_hit_us"] = medianD(hits) / 1e3
	return reps, nil
}

// coreConfig is the machine a request describes, as the session would
// build it.
func coreConfig(rq cluster.RunRequest) core.Config {
	cfg := core.DefaultConfig()
	if rq.Contexts > 0 {
		cfg.Contexts = rq.Contexts
	}
	if rq.Latency > 0 {
		cfg.Mem.Latency = rq.Latency
	}
	if rq.Policy != "" {
		cfg.Policy = sched.ByName(rq.Policy)
	}
	return cfg.Normalized()
}

// probeCore runs each solo or queue sample point on a bare machine:
// core.New, then Machine.Run. Each run must reproduce the session's
// report for the point, so the probe times the same work.
func probeCore(tr *tracer, in probeInput, ws map[string]*workload.Workload, reps []*stats.Report, v layerValues) error {
	var news, runs []time.Duration
	var cycles, insts int64
	var busy time.Duration
	for i, rq := range in.reqs {
		var m *core.Machine
		var err error
		news = append(news, timeit(tr, "core.new", func() { m, err = core.New(coreConfig(rq)) }))
		if err != nil {
			return err
		}
		if err := attach(m, rq, ws); err != nil {
			return err
		}
		var rep *stats.Report
		d := timeit(tr, "core.run", func() { rep, err = m.Run(core.Stop{}) })
		if err != nil {
			return err
		}
		if rep.Cycles != reps[i].Cycles || rep.Insts != reps[i].Insts {
			return fmt.Errorf("core probe of %+v: %d cycles %d insts, session %d cycles %d insts",
				rq, rep.Cycles, rep.Insts, reps[i].Cycles, reps[i].Insts)
		}
		runs = append(runs, d)
		busy += d
		cycles += rep.Cycles
		insts += rep.Insts
	}
	v["core.new_us"] = medianD(news) / 1e3
	v["core.run_ms"] = medianD(runs) / 1e6
	v["core.mcycles_per_s"] = float64(cycles) / 1e6 / busy.Seconds()
	v["core.minst_per_s"] = float64(insts) / 1e6 / busy.Seconds()
	return nil
}

// attach feeds the machine's contexts the way the session does for solo
// and queue runs.
func attach(m *core.Machine, rq cluster.RunRequest, ws map[string]*workload.Workload) error {
	switch rq.Mode {
	case "", "solo":
		w := ws[rq.Programs[0]]
		return m.SetThreadStream(0, w.Spec.Short, w.Stream())
	case "queue":
		q := core.NewJobQueue()
		for _, p := range rq.Programs {
			w := ws[p]
			q.Add(w.Spec.Short, func() *prog.Stream { return w.Stream() })
		}
		src := q.Source()
		for i := 0; i < m.NumThreads(); i++ {
			if err := m.SetThread(i, src); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("probe: mode %q", rq.Mode)
}

// probeStore encodes, writes, reads, decodes and misses every sample
// report in a scratch Dir.
func probeStore(tr *tracer, dir string, in probeInput, reps []*stats.Report, v layerValues) error {
	d, err := store.Open(dir)
	if err != nil {
		return err
	}
	env := experiments.NewEnv(in.scale)
	ses := session.New()
	var encs, puts, gets, decs, misses []time.Duration
	var size int
	for i, rq := range in.reqs {
		spec, err := cluster.ResolveSpec(env, rq)
		if err != nil {
			return err
		}
		key, _ := ses.PersistKey(spec)
		var data []byte
		encs = append(encs, timeit(tr, "store.encode", func() { data, err = store.EncodeRecord(key, reps[i]) }))
		if err != nil {
			return err
		}
		size += len(data)
		puts = append(puts, timeit(tr, "store.put", func() { err = d.Put(key, reps[i]) }))
		if err != nil {
			return err
		}
		var tier store.Tier
		gets = append(gets, timeit(tr, "store.get", func() { _, tier = d.Get(key) }))
		if !tier.Hit() {
			return fmt.Errorf("store probe: %+v missed after put", rq)
		}
		decs = append(decs, timeit(tr, "store.decode", func() { _, err = store.DecodeRecord(data, key) }))
		if err != nil {
			return err
		}
		misses = append(misses, timeit(tr, "store.miss", func() { _, tier = d.Get(key + "|absent") }))
		if tier.Hit() {
			return errors.New("store probe: absent key hit")
		}
	}
	v["store.encode_us"] = medianD(encs) / 1e3
	v["store.record_bytes"] = float64(size) / float64(len(in.reqs))
	v["store.put_us"] = medianD(puts) / 1e3
	v["store.get_us"] = medianD(gets) / 1e3
	v["store.decode_us"] = medianD(decs) / 1e3
	v["store.miss_us"] = medianD(misses) / 1e3
	return nil
}

// probeHTTP times one store-warm sweep four ways, each on fresh
// sessions so every point is a first touch that reads the store:
// through Session.RunAllTracked with no store (session.runall, a cold
// simulation), in-process with the store (resolve + key + get), through
// a standalone Server over HTTP, and through a Coordinator with one
// worker. cluster.http_json_ms is HTTP minus in-process;
// cluster.route_ms is coordinator minus standalone.
func probeHTTP(o *options, tr *tracer, dir string, in probeInput, v layerValues) error {
	axes, err := in.sweep.Expand()
	if err != nil {
		return err
	}
	d, err := store.Open(dir)
	if err != nil {
		return err
	}
	resolve := func(env *experiments.Env) ([]mtvec.RunSpec, error) {
		specs := make([]mtvec.RunSpec, len(axes))
		for i, pt := range axes {
			spec, err := cluster.ResolveSpec(env, at(in.sweep.Base, pt))
			if err != nil {
				return nil, err
			}
			specs[i] = spec
		}
		return specs, nil
	}
	var cold, inproc, viaHTTP, viaCoord []time.Duration
	for r := 0; r < probeRuns; r++ {
		env := experiments.NewEnv(in.scale)
		specs, err := resolve(env) // builds, untimed
		if err != nil {
			return err
		}
		ses := session.New(session.WithJobs(o.jobs))
		var res []session.Result
		cold = append(cold, timeit(tr, "session.runall", func() { res = ses.RunAllTracked(context.Background(), specs...) }))
		if err := resultErr(res); err != nil {
			return err
		}
		if r == 0 { // fill the store for the warm probes
			warm := session.New(session.WithJobs(o.jobs), session.WithStore(d))
			if err := resultErr(warm.RunAllTracked(context.Background(), specs...)); err != nil {
				return err
			}
		}
		warm := session.New(session.WithJobs(o.jobs), session.WithStore(d))
		inproc = append(inproc, timeit(tr, "session.inproc_sweep", func() {
			if specs, err = resolve(env); err == nil {
				res = warm.RunAllTracked(context.Background(), specs...)
			}
		}))
		if err != nil {
			return err
		}
		if err := resultErr(res); err != nil {
			return err
		}
		dh, err := timedSweep(o, tr, in, dir, false)
		if err != nil {
			return err
		}
		viaHTTP = append(viaHTTP, dh)
		dc, err := timedSweep(o, tr, in, dir, true)
		if err != nil {
			return err
		}
		viaCoord = append(viaCoord, dc)
	}
	v["session.runall_ms_per_point"] = medianD(cold) / 1e6 / float64(len(axes))
	v["cluster.http_json_ms"] = (medianD(viaHTTP) - medianD(inproc)) / 1e6
	v["cluster.route_ms"] = (medianD(viaCoord) - medianD(viaHTTP)) / 1e6
	return nil
}

func resultErr(res []session.Result) error {
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// timedSweep starts a fresh server over the warm store (behind a fresh
// coordinator when coord is set), builds its workloads, and times one
// sweep through it.
func timedSweep(o *options, tr *tracer, in probeInput, dir string, coord bool) (time.Duration, error) {
	bases := []base{{Req: in.sweep.Base}}
	srv, err := cluster.NewServer(cluster.Config{Scale: in.scale, Jobs: o.jobs, StoreDir: dir})
	if err != nil {
		return 0, err
	}
	if err := prebuild(srv.Env(), bases); err != nil {
		return 0, err
	}
	n, err := serve(srv.Handler())
	if err != nil {
		return 0, err
	}
	defer n.stop()
	url, name := n.url, "cluster.http_sweep"
	if coord {
		c, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Scale: in.scale, Workers: []string{n.url}})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if err := prebuild(c.Env(), bases); err != nil {
			return 0, err
		}
		cn, err := serve(c.Handler())
		if err != nil {
			return 0, err
		}
		defer cn.stop()
		url, name = cn.url, "cluster.coord_sweep"
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var sr *cluster.SweepResponse
	d := timeit(tr, name, func() { sr, err = postSweep(context.Background(), client, url, in.sweep, nil) })
	if err != nil {
		return 0, err
	}
	if sr.Failed != 0 || sr.Simulated != 0 {
		return 0, fmt.Errorf("%s probe: %d failed, %d simulated on a warm store", name, sr.Failed, sr.Simulated)
	}
	return d, nil
}
