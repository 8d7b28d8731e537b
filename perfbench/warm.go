package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sync"
	"time"

	"mtvec"
	"mtvec/internal/cluster"
	"mtvec/internal/experiments"
	"mtvec/internal/stats"
	"mtvec/internal/store"
)

// warmScale is serve-warm's workload scale.
const warmScale = 1e-4

// warmInst is serve-warm: standalone Servers over a Dir store that
// set-up filled with the seeded universe. The timed phase runs epochs;
// each epoch starts a fresh Server (empty memo) and walks the universe
// once, so most points are first touches that read the store and the
// rest revisit the memo.
type warmInst struct {
	o    *options
	tr   *tracer
	u    *warmUniverse
	dir  string
	refs map[pointID]*stats.Report // set-up's report for every point
}

// setupWarm fills a fresh store with the universe (keeping every
// report as the reference) and warms the serving path against a
// throwaway server.
func setupWarm(o *options, tr *tracer) (instance, error) {
	dir, err := os.MkdirTemp(o.work, "warm-")
	if err != nil {
		return nil, err
	}
	w := &warmInst{o: o, tr: tr, u: newWarmUniverse(o.seed), dir: dir, refs: map[pointID]*stats.Report{}}
	st, err := store.Open(w.dir)
	if err != nil {
		return nil, err
	}
	env := experiments.NewEnv(warmScale)
	env.SetJobs(o.jobs)
	env.SetStore(st)
	var ids []pointID
	var specs []mtvec.RunSpec
	for b, bs := range w.u.Bases {
		for _, pt := range w.u.Points[b] {
			spec, err := cluster.ResolveSpec(env, at(bs.Req, pt))
			if err != nil {
				return nil, err
			}
			ids = append(ids, pointID{b, pt})
			specs = append(specs, spec)
		}
	}
	for i, r := range env.Session().RunAllTracked(context.Background(), specs...) {
		if r.Err != nil {
			return nil, fmt.Errorf("fill %+v: %w", ids[i], r.Err)
		}
		ref, err := wireCopy(r.Report)
		if err != nil {
			return nil, err
		}
		w.refs[ids[i]] = ref
	}
	// Warm-up: one short epoch of an unused seed against a throwaway
	// server, so the timed phase pays no first-use costs.
	_, n, err := w.startServer(nil)
	if err != nil {
		return nil, err
	}
	c := newClient(o.clients)
	for _, plan := range w.u.warmEpoch(o.seed^0xa11, -1)[:24] {
		if _, err := postSweep(context.Background(), c, n.url, plan.request(w.u.Bases), nil); err != nil {
			n.stop()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	n.stop()
	c.CloseIdleConnections()
	return w, nil
}

// close leaves the store on disk: deleting thousands of records would
// load the file system under the next set-up or timed phase. The run's
// scratch directory goes when the run ends.
func (w *warmInst) close() {}

// at applies a point's axes to a base request (zero axes keep the base).
func at(rq cluster.RunRequest, pt cluster.PointAxes) cluster.RunRequest {
	if pt.Contexts > 0 {
		rq.Contexts = pt.Contexts
	}
	if pt.Latency > 0 {
		rq.Latency = pt.Latency
	}
	if pt.Policy != "" {
		rq.Policy = pt.Policy
	}
	return rq
}

// wireCopy returns the report as a client decodes it off the wire, so
// references compare field for field with served reports.
func wireCopy(rep *stats.Report) (*stats.Report, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	out := new(stats.Report)
	return out, json.Unmarshal(b, out)
}

// prebuild builds every workload the bases name in the env, so request
// handling never pays for a build.
func prebuild(env *experiments.Env, bases []base) error {
	for _, b := range bases {
		for _, p := range b.Req.Programs {
			if _, err := env.W(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// startServer starts a fresh standalone server over the filled store,
// with every workload built. With a tracer, requests and store calls
// are spanned.
func (w *warmInst) startServer(tr *tracer) (*cluster.Server, *node, error) {
	srv, err := cluster.NewServer(cluster.Config{Scale: warmScale, Jobs: w.o.jobs, StoreDir: w.dir})
	if err != nil {
		return nil, nil, err
	}
	if err := prebuild(srv.Env(), w.u.Bases); err != nil {
		return nil, nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		d, err := store.Open(w.dir)
		if err != nil {
			return nil, nil, err
		}
		srv.Env().SetStore(&tracedStore{dir: d, t: tr, node: "srv"})
		h = tr.traceHandler("cluster.sweep", "srv", h)
	}
	n, err := serve(h)
	if err != nil {
		return nil, nil, err
	}
	return srv, n, nil
}

// timed runs epochs until the timed phase's time is used up. Server
// start-up between epochs is not timed.
func (w *warmInst) timed() (*phase, error) {
	p := &phase{}
	var mu sync.Mutex
	var used time.Duration
	c := newClient(w.o.clients)
	defer c.CloseIdleConnections()
	mem := startMem()
	for epoch := 0; used < w.o.seconds; epoch++ {
		plans := w.u.warmEpoch(w.o.seed, epoch)
		srv, n, err := w.startServer(w.tr)
		if err != nil {
			return nil, err
		}
		next := 0
		start := time.Now()
		closedLoop(w.o.clients, func() (func(), bool) {
			mu.Lock()
			defer mu.Unlock()
			if next >= len(plans) || used+time.Since(start) >= w.o.seconds {
				return nil, false
			}
			plan := &plans[next]
			req := fmt.Sprintf("e%d-%d", epoch, next)
			next++
			return func() { w.sweep(c, n.url, plan, req, p, &mu) }, true
		})
		used += time.Since(start)
		p.gateBusy += srv.Session().Busy()
		p.gateWidth = w.o.jobs
		n.stop()
	}
	p.wall = used
	p.alloc, p.peak = mem.finish()
	// Mix guard: no simulation at all, every first touch a store read,
	// every revisit a memo hit.
	if m := p.mix; m.Sim != 0 || m.Peer != 0 || m.Store != m.PlannedFresh || m.Memo != m.PlannedRevisit {
		p.fail(1, "mix left the plan: sim %d peer %d, store %d of %d first touches, memo %d of %d revisits",
			m.Sim, m.Peer, m.Store, m.PlannedFresh, m.Memo, m.PlannedRevisit)
	}
	return p, nil
}

// sweep sends one planned sweep and checks every report against the
// reference set-up computed for its point.
func (w *warmInst) sweep(c *http.Client, url string, plan *sweepPlan, req string, p *phase, mu *sync.Mutex) {
	a := w.tr.begin("client.sweep", "client", 0, req, false)
	start := time.Now()
	sr, err := postSweep(context.Background(), c, url, plan.request(w.u.Bases), &a)
	lat := time.Since(start)
	a.end()
	p.tallySweep(mu, lat, plan, sr, err, func(i int, pt *cluster.SweepPoint) error {
		if !reflect.DeepEqual(pt.Report, w.refs[pointID{plan.Base, plan.Points[i]}]) {
			return errMismatch
		}
		// serve-warm simulates nothing: its instruction rate counts the
		// instructions of the reports it serves.
		p.simInsts += pt.Report.Insts
		return nil
	})
}

// probe runs the layer probes on a seeded sample of the universe and
// one of its sweeps.
func (w *warmInst) probe(v layerValues) error {
	in := probeInput{scale: warmScale}
	seen := map[string]bool{}
	for _, b := range w.u.Bases {
		for _, p := range b.Req.Programs {
			if !seen[p] {
				seen[p] = true
				in.programs = append(in.programs, p)
			}
		}
	}
	plans := w.u.warmEpoch(w.o.seed, 0)
	for i := 0; len(in.reqs) < probeSample; i += len(plans) / probeSample {
		plan := plans[i%len(plans)]
		in.reqs = append(in.reqs, at(w.u.Bases[plan.Base].Req, plan.Points[0]))
	}
	in.sweep = plans[len(plans)/2].request(w.u.Bases)
	return runProbes(w.o, w.tr, in, v)
}
