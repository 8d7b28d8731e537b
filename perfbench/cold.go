package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"

	"mtvec/internal/cluster"
	"mtvec/internal/experiments"
	"mtvec/internal/session"
	"mtvec/internal/stats"
	"mtvec/internal/store"
)

// coldScale is sweep-cold's workload scale.
const coldScale = 1e-4

// coldInst is sweep-cold: a Coordinator over two worker Servers, each
// with its own empty Dir store; the worker gate widths sum to nproc.
type coldInst struct {
	o       *options
	tr      *tracer
	gen     *coldGen
	workers []*cluster.Server
	nodes   []*node // workers, then the coordinator
	coord   *cluster.Coordinator
	url     string
	samples []coldSample // the last timed phase's re-checked points
}

// setupCold starts the cluster with every workload built on every node
// (the coordinator resolves specs too, to route by persist key), and
// warms the simulation and serving paths on a throwaway server.
func setupCold(o *options, tr *tracer) (instance, error) {
	c := &coldInst{o: o, tr: tr, gen: newColdGen(o.seed)}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	jobs := []int{(o.jobs + 1) / 2, o.jobs / 2}
	if jobs[1] < 1 {
		jobs[1] = 1 // one CPU: the gates cannot sum to nproc; keep both workers live
	}
	var urls []string
	for i, j := range jobs {
		node := fmt.Sprintf("w%d", i)
		dir, err := os.MkdirTemp(o.work, "cold-"+node+"-")
		if err != nil {
			return nil, err
		}
		srv, err := cluster.NewServer(cluster.Config{Scale: coldScale, Jobs: j, StoreDir: dir})
		if err != nil {
			return nil, err
		}
		if err := prebuild(srv.Env(), c.gen.bases); err != nil {
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			d, err := store.Open(dir)
			if err != nil {
				return nil, err
			}
			srv.Env().SetStore(&tracedStore{dir: d, t: tr, node: node})
			h = tr.traceHandler("cluster.worker_sweep", node, h)
		}
		n, err := serve(h)
		if err != nil {
			return nil, err
		}
		c.workers = append(c.workers, srv)
		c.nodes = append(c.nodes, n)
		urls = append(urls, n.url)
	}
	client := newClient(o.clients)
	if tr != nil {
		client.Transport = &traceTransport{t: tr, name: "cluster.subsweep", node: "coord", base: client.Transport}
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Scale: coldScale, Workers: urls, Client: client})
	if err != nil {
		return nil, err
	}
	c.coord = coord
	if err := prebuild(coord.Env(), c.gen.bases); err != nil {
		return nil, err
	}
	n, err := serve(tr.traceHandler("cluster.coord_sweep", "coord", coord.Handler()))
	if err != nil {
		return nil, err
	}
	c.nodes = append(c.nodes, n)
	c.url = n.url
	if err := coldWarmup(o); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// coldWarmup simulates three blocks of sweeps of an unused seed on a
// throwaway store-less server, leaving the cluster's memos and stores
// empty.
func coldWarmup(o *options) error {
	srv, err := cluster.NewServer(cluster.Config{Scale: coldScale, Jobs: o.jobs})
	if err != nil {
		return err
	}
	n, err := serve(srv.Handler())
	if err != nil {
		return err
	}
	defer n.stop()
	c := newClient(1)
	defer c.CloseIdleConnections()
	g := newColdGen(o.seed ^ 0xa11)
	for i := 0; i < 3*len(coldBlock()); i++ {
		plan := g.next()
		if _, err := postSweep(context.Background(), c, n.url, plan.request(g.bases), nil); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	return nil
}

func (c *coldInst) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	for _, n := range c.nodes {
		n.stop()
	}
}

// coldSample is a served point kept for the post-phase re-check.
type coldSample struct {
	req cluster.RunRequest
	rep *stats.Report
}

// timed sends generated sweeps to the coordinator for the timed phase,
// then re-simulates a seeded sample of the served points with a fresh
// Session.Run each and compares.
func (c *coldInst) timed() (*phase, error) {
	p := &phase{}
	var mu sync.Mutex
	var samples []coldSample
	client := newClient(c.o.clients)
	defer client.CloseIdleConnections()
	busy0 := make([]time.Duration, len(c.workers))
	for i, w := range c.workers {
		busy0[i] = w.Session().Busy()
		p.gateWidth += w.Session().Jobs()
	}
	mem := startMem()
	start := time.Now()
	deadline := start.Add(c.o.seconds)
	closedLoop(c.o.clients, func() (func(), bool) {
		if time.Now().After(deadline) {
			return nil, false
		}
		mu.Lock()
		plan := c.gen.next()
		i := c.gen.n - 1
		var keep []bool
		for j := plan.Revisits; j < len(plan.Points); j++ {
			if c.gen.sampled(i, j) {
				if keep == nil {
					keep = make([]bool, len(plan.Points))
				}
				keep[j] = true
			}
		}
		mu.Unlock()
		return func() { c.sweep(client, &plan, i, keep, p, &mu, &samples) }, true
	})
	p.wall = time.Since(start)
	p.alloc, p.peak = mem.finish()
	for i, w := range c.workers {
		p.gateBusy += w.Session().Busy() - busy0[i]
	}
	if err := c.recheck(p, samples); err != nil {
		return nil, err
	}
	c.samples = samples
	// Mix guard: every planned revisit is answered from a cache tier or
	// coalesced onto its in-flight first request, and nothing beyond the
	// fresh points (and coalesced followers of them) simulates.
	if m := p.mix; m.Memo+m.Store+m.Peer+m.Coalesced < m.PlannedRevisit || m.Sim > m.PlannedFresh+m.Coalesced {
		p.fail(1, "mix left the plan: sim %d for %d fresh, cache hits %d + coalesced %d for %d revisits",
			m.Sim, m.PlannedFresh, m.Memo+m.Store+m.Peer, m.Coalesced, m.PlannedRevisit)
	}
	return p, nil
}

func (c *coldInst) sweep(client *http.Client, plan *sweepPlan, i int, keep []bool, p *phase, mu *sync.Mutex, samples *[]coldSample) {
	a := c.tr.begin("client.sweep", "client", 0, fmt.Sprintf("s%d", i), false)
	start := time.Now()
	sr, err := postSweep(context.Background(), client, c.url, plan.request(c.gen.bases), &a)
	lat := time.Since(start)
	a.end()
	p.tallySweep(mu, lat, plan, sr, err, func(j int, pt *cluster.SweepPoint) error {
		if pt.Cache == "sim" {
			p.simInsts += pt.Report.Insts
		}
		if keep != nil && keep[j] && len(*samples) < coldSampleN {
			*samples = append(*samples, coldSample{req: at(c.gen.bases[plan.Base].Req, plan.Points[j]), rep: pt.Report})
		}
		return nil
	})
}

// recheck re-simulates every sampled point in a fresh session of its
// own and counts a differing served report as a failure.
func (c *coldInst) recheck(p *phase, samples []coldSample) error {
	env := experiments.NewEnv(coldScale)
	for _, s := range samples {
		spec, err := cluster.ResolveSpec(env, s.req)
		if err != nil {
			return err
		}
		rep, err := session.New().Run(context.Background(), spec)
		if err != nil {
			return fmt.Errorf("re-check %+v: %w", s.req, err)
		}
		want, err := wireCopy(rep)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, s.rep) {
			p.fail(1, "re-check %+v: %v", s.req, errMismatch)
		}
	}
	if len(samples) == 0 {
		p.fail(1, "re-check sample is empty")
	}
	return nil
}

// probe runs the layer probes on the re-checked sample of the traced
// phase's points and on the stream's first queue sweep.
func (c *coldInst) probe(v layerValues) error {
	in := probeInput{scale: coldScale}
	for _, b := range c.gen.bases {
		in.programs = append(in.programs, b.Req.Programs...)
	}
	slices.Sort(in.programs)
	in.programs = slices.Compact(in.programs)
	for _, s := range c.samples[:min(len(c.samples), probeSample)] {
		in.reqs = append(in.reqs, s.req)
	}
	g := newColdGen(c.o.seed)
	for {
		plan := g.next()
		if g.bases[plan.Base].Multi {
			in.sweep = plan.request(g.bases)
			break
		}
	}
	return runProbes(c.o, c.tr, in, v)
}
