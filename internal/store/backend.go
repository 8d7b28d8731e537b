package store

import (
	"context"

	"mtvec/internal/stats"
)

// Tier identifies which side of a backend served a lookup.
type Tier int

const (
	// TierMiss: the backend did not serve the result (absent, or Do
	// computed it fresh).
	TierMiss Tier = iota
	// TierLocal: served from this process's on-disk tier.
	TierLocal
	// TierPeer: served by a remote peer backend.
	TierPeer
)

// Hit reports whether the tier represents a served result.
func (t Tier) Hit() bool { return t != TierMiss }

// String names the tier ("miss", "local", "peer").
func (t Tier) String() string {
	switch t {
	case TierMiss:
		return "miss"
	case TierLocal:
		return "local"
	case TierPeer:
		return "peer"
	}
	return "unknown"
}

// Backend is a persistent result tier the session engine can sit on: a
// content-addressed table of verified Reports. Implementations must be
// safe for concurrent use and must never serve a record that fails
// verification — a corrupt or stale entry is a miss, recomputed rather
// than trusted.
//
// The package provides three: Dir (on-disk, cross-process
// single-flight), HTTPPeer (a remote worker's record API) and Tiered
// (local disk warmed from peers). All of them satisfy the same
// conformance suite (see conformance_test.go).
type Backend interface {
	// Get returns the verified report for key and the tier that served
	// it, or (nil, TierMiss).
	Get(key string) (*stats.Report, Tier)
	// Put persists the report under key. Writers of one key all write
	// identical bytes (simulations are pure functions of their key), so
	// concurrent Puts are harmless.
	Put(key string, rep *stats.Report) error
	// Do returns the report for key, computing and persisting it with
	// compute on a verified miss; the tier is TierMiss when compute ran.
	// Concurrent Do calls for one key on one backend compute at most
	// once (and at most once per process fleet, for backends with
	// cross-process single-flight). Do returns an error only from ctx
	// or compute, never from storage I/O.
	Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (*stats.Report, Tier, error)
	// Stats snapshots the backend's process-local counters.
	Stats() Stats
}

// Compile-time interface checks.
var (
	_ Backend = (*Dir)(nil)
	_ Backend = (*HTTPPeer)(nil)
	_ Backend = (*Tiered)(nil)
)

// Tiered composes a local Dir with remote peer backends: lookups try
// local disk first, then each peer in order, and a peer hit is written
// back to the local tier — so a fresh worker warm-starts from the
// fleet's results instead of re-simulating them. Writes go to the local
// tier only; peers are read-only from here (each peer persists its own
// work).
//
// local may be nil (a diskless worker serving purely from peers); Put
// is then a no-op and Do degrades to per-call compute after the peer
// check.
type Tiered struct {
	local *Dir
	peers []Backend
}

// NewTiered builds the composite. Nil peers are skipped.
func NewTiered(local *Dir, peers ...Backend) *Tiered {
	t := &Tiered{local: local}
	for _, p := range peers {
		if p != nil {
			t.peers = append(t.peers, p)
		}
	}
	return t
}

// Local returns the composite's on-disk tier (nil when diskless).
func (t *Tiered) Local() *Dir { return t.local }

// Get tries local disk, then each peer in order. A peer hit is written
// through to the local tier (best-effort) so the next lookup is local.
func (t *Tiered) Get(key string) (*stats.Report, Tier) {
	if t.local != nil {
		if rep, tier := t.local.Get(key); tier.Hit() {
			return rep, tier
		}
	}
	for _, p := range t.peers {
		if rep, tier := p.Get(key); tier.Hit() {
			if t.local != nil {
				_ = t.local.Put(key, rep)
			}
			return rep, TierPeer
		}
	}
	return nil, TierMiss
}

// Put persists to the local tier (no-op when diskless).
func (t *Tiered) Put(key string, rep *stats.Report) error {
	if t.local == nil {
		return nil
	}
	return t.local.Put(key, rep)
}

// Do checks every tier once, then computes under the local Dir's
// cross-process single-flight (or directly, when diskless). Peers are
// not re-checked under the lock: the single pre-check bounds remote
// round trips at one per tier per call.
func (t *Tiered) Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (*stats.Report, Tier, error) {
	if rep, tier := t.Get(key); tier.Hit() {
		return rep, tier, nil
	}
	if t.local != nil {
		return t.local.Do(ctx, key, compute)
	}
	if err := ctx.Err(); err != nil {
		return nil, TierMiss, err
	}
	rep, err := compute()
	if err != nil {
		return nil, TierMiss, err
	}
	return rep, TierMiss, nil
}

// Stats aggregates the composite's children: local counters plus every
// peer's, with PeerHits carrying the peers' combined hit count.
func (t *Tiered) Stats() Stats {
	var s Stats
	if t.local != nil {
		s.add(t.local.Stats())
	}
	for _, p := range t.peers {
		ps := p.Stats()
		ps.PeerHits = ps.Hits
		s.add(ps)
	}
	return s
}
