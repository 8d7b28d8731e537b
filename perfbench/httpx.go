package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"mtvec/internal/cluster"
)

// node is one in-process HTTP role on a loopback listener.
type node struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

// serve starts h on a fresh loopback port.
func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return n, nil
}

// stop closes the listener and every connection, and waits for the
// serving goroutine to exit.
func (n *node) stop() {
	_ = n.srv.Close() // nothing is in flight once the clients are done
	<-n.done
}

// newClient is a keep-alive HTTP client for the closed-loop clients.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: 2 * conns,
		IdleConnTimeout:     30 * time.Second,
	}}
}

// postSweep sends one sweep and decodes the answer. parent, when set,
// travels in the span headers.
func postSweep(ctx context.Context, c *http.Client, url string, rq cluster.SweepRequest, parent *active) (*cluster.SweepResponse, error) {
	axes, err := rq.Expand()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(rq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/api/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != nil && parent.t != nil {
		setSpanHeaders(req.Header, parent.ref())
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("sweep: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sr cluster.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("sweep response: %w", err)
	}
	if len(sr.Points) != len(axes) {
		return nil, fmt.Errorf("sweep answered %d of %d points", len(sr.Points), len(axes))
	}
	return &sr, nil
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one is answered, until next reports no more work.
// It returns once every client has stopped.
func closedLoop(clients int, next func() (func(), bool)) {
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				work, ok := next()
				if !ok {
					return
				}
				work()
			}
		}()
	}
	wg.Wait()
}

// tallySweep folds one answered sweep into the phase: latency, tier mix,
// coordinator counters, and per-point errors as failures. check, when
// non-nil, verifies each answered point's report.
func (p *phase) tallySweep(mu *sync.Mutex, lat time.Duration, plan *sweepPlan, sr *cluster.SweepResponse, err error, check func(i int, pt *cluster.SweepPoint) error) {
	mu.Lock()
	defer mu.Unlock()
	n := int64(len(plan.Points))
	p.attempted += n
	if err != nil {
		p.fail(n, "%v", err)
		return
	}
	p.lat = append(p.lat, lat)
	p.mix.PlannedFresh += int64(plan.Fresh)
	p.mix.PlannedRevisit += int64(plan.Revisits)
	p.mix.Sim += int64(sr.Simulated)
	p.mix.Memo += int64(sr.MemoHits)
	p.mix.Store += int64(sr.StoreHits)
	p.mix.Peer += int64(sr.PeerHits)
	p.mix.Coalesced += int64(sr.Coalesced)
	p.mix.Retries += int64(sr.Retries)
	p.mix.Hedges += int64(sr.Hedges)
	for i := range sr.Points {
		pt := &sr.Points[i]
		if pt.Error != "" {
			p.fail(1, "point %+v: %s", plan.Points[i], pt.Error)
			continue
		}
		if pt.Report == nil {
			p.fail(1, "point %+v: no report", plan.Points[i])
			continue
		}
		if check != nil {
			if err := check(i, pt); err != nil {
				p.fail(1, "point %+v: %v", plan.Points[i], err)
				continue
			}
		}
		p.points++
	}
}

var errMismatch = errors.New("report differs from the reference")
