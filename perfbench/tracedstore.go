package main

import (
	"context"
	"sync/atomic"

	"mtvec/internal/stats"
	"mtvec/internal/store"
)

// tracedStore wraps a store.Dir with spans around Get, Put and Do. It
// keeps the Dir's TryLock so the session's batch path behaves exactly
// as with the bare Dir. Get and Put carry no context, so their spans
// are orphans parented by containment (see span).
type tracedStore struct {
	dir  *store.Dir
	t    *tracer
	node string
}

var (
	_ store.Backend   = (*tracedStore)(nil)
	_ store.TryLocker = (*tracedStore)(nil)
)

func (s *tracedStore) Get(key string) (*stats.Report, store.Tier) {
	a := s.t.begin("store.get", s.node, 0, "", true)
	defer a.end()
	return s.dir.Get(key)
}

func (s *tracedStore) Put(key string, rep *stats.Report) error {
	a := s.t.begin("store.put", s.node, 0, "", true)
	defer a.end()
	return s.dir.Put(key, rep)
}

func (s *tracedStore) Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (*stats.Report, store.Tier, error) {
	a := s.t.beginCtx(ctx, "store.do", s.node)
	defer a.end()
	return s.dir.Do(ctx, key, compute)
}

func (s *tracedStore) Stats() store.Stats { return s.dir.Stats() }

func (s *tracedStore) TryLock(key string) (release func()) { return s.dir.TryLock(key) }

// instCounter is a result backend that never hits and stores nothing:
// attached to a session it sees every fresh simulation of a persistable
// point through Do, and sums the simulated instructions. suite-golden
// uses it to measure simulated instructions without a store.
type instCounter struct {
	insts atomic.Int64
	sims  atomic.Int64
}

var _ store.Backend = (*instCounter)(nil)

func (c *instCounter) Get(string) (*stats.Report, store.Tier) { return nil, store.TierMiss }

func (c *instCounter) Put(_ string, rep *stats.Report) error {
	c.note(rep)
	return nil
}

func (c *instCounter) Do(ctx context.Context, _ string, compute func() (*stats.Report, error)) (*stats.Report, store.Tier, error) {
	if err := ctx.Err(); err != nil {
		return nil, store.TierMiss, err
	}
	rep, err := compute()
	if err == nil {
		c.note(rep)
	}
	return rep, store.TierMiss, err
}

func (c *instCounter) note(rep *stats.Report) {
	if rep != nil {
		c.insts.Add(rep.Insts)
		c.sims.Add(1)
	}
}

func (c *instCounter) Stats() store.Stats { return store.Stats{} }
