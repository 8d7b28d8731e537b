package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// tailLabel names the highest percentile of n samples that still has at
// least ten samples beyond it (p50, p90, p99, p99.9), or "" when n is
// too small for even the median to qualify.
func tailLabel(n int) string {
	label := ""
	for _, c := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if float64(n)*(1-c.q) >= 10-1e-9 {
			label = c.name
		}
	}
	return label
}

// latencySummary formats a latency sample the way every timing is
// reported: median, the highest percentile with ten samples beyond it,
// and the sample count.
func latencySummary(ms []float64) string {
	n := len(ms)
	tail := tailLabel(n)
	if tail == "" {
		return fmt.Sprintf("median %.3f ms (n=%d; too few samples for a tail percentile)", median(ms), n)
	}
	q := map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99, "p99.9": 0.999}[tail]
	return fmt.Sprintf("median %.3f ms, %s %.3f ms (n=%d)", median(ms), tail, quantile(ms, q), n)
}

// memSampler tracks the bytes allocated and the peak live heap over a
// timed phase. Peak heap is sampled from runtime/metrics every few
// milliseconds, which does not stop the world.
type memSampler struct {
	alloc0 uint64
	stop   chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	peak   uint64
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// startMem collects set-up's garbage, so the peak belongs to the timed
// phase, and begins sampling. The caller must call finish exactly once.
func startMem() *memSampler {
	runtime.GC()
	m := &memSampler{stop: make(chan struct{})}
	m.alloc0 = totalAlloc()
	m.observe()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.observe()
			}
		}
	}()
	return m
}

func (m *memSampler) observe() {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	m.mu.Lock()
	if v > m.peak {
		m.peak = v
	}
	m.mu.Unlock()
}

// finish stops sampling and returns the bytes allocated since start and
// the peak live heap seen.
func (m *memSampler) finish() (allocated, peak uint64) {
	m.observe()
	close(m.stop)
	m.done.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	return totalAlloc() - m.alloc0, m.peak
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
