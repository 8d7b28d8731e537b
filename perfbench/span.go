package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the layer's exported functions. Name is
// "<layer>.<call>"; Node names the in-process role that ran it
// (client, srv, coord, w0, ...). A span whose parent could not be
// passed to it explicitly (a store call made without a context) is
// recorded with Orphan set and is charged at summary time to the
// innermost span of the same node that encloses it.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    string        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Node   string        `json:"node"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Orphan bool          `json:"orphan,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's prefix: the internal/ module it times.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// active is an open span; end records it.
type active struct {
	t *tracer
	s span
}

// begin opens a span. parent 0 with orphan false makes a root.
func (t *tracer) begin(name, node string, parent uint64, req string, orphan bool) active {
	if t == nil {
		return active{}
	}
	return active{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Node: node,
		Start: time.Since(t.origin), Orphan: orphan,
	}}
}

// beginCtx opens a span whose parent travels in ctx (an orphan when ctx
// carries none).
func (t *tracer) beginCtx(ctx context.Context, name, node string) active {
	if t == nil {
		return active{}
	}
	p, ok := ctx.Value(spanKey{}).(spanRef)
	return t.begin(name, node, p.id, p.req, !ok)
}

func (a *active) id() uint64 { return a.s.ID }

// ref is the span as a parent reference for its callees.
func (a *active) ref() spanRef { return spanRef{id: a.s.ID, req: a.s.Req} }

func (a *active) tag(tag string) { a.s.Tag = tag }

func (a *active) end() {
	if a.t == nil {
		return
	}
	a.s.End = time.Since(a.t.origin)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// spanRef is what a callee needs to parent its spans.
type spanRef struct {
	id  uint64
	req string
}

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

// Span identity crosses HTTP hops in these request headers.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

func setSpanHeaders(h http.Header, r spanRef) {
	h.Set(hdrSpan, strconv.FormatUint(r.id, 10))
	h.Set(hdrReq, r.req)
}

// traceHandler wraps an http.Handler with a span per sweep request,
// parented by the caller's span headers, and passes the span to the
// handler's callees through the request context. Other routes (health
// probes) pass through untraced.
func (t *tracer) traceHandler(name, node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/sweep" {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		a := t.begin(name, node, parent, r.Header.Get(hdrReq), err != nil)
		defer a.end()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), a.ref())))
	})
}

// traceTransport spans every outgoing request of a node that issues
// HTTP calls without a traceable context (the coordinator sends its
// sub-sweeps under its own lifetime context), and forwards the span to
// the callee in headers.
type traceTransport struct {
	t    *tracer
	name string
	node string
	base http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	a := tt.t.beginCtx(req.Context(), tt.name, tt.node)
	req = req.Clone(req.Context())
	setSpanHeaders(req.Header, a.ref())
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		a.end()
		return nil, err
	}
	// The span covers the response body too: the caller decodes it
	// before the sub-sweep is answered.
	resp.Body = &endOnClose{ReadCloser: resp.Body, a: a}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	a    active
	once sync.Once
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.a.end)
	return err
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the recorded spans, sorted by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self time
	durs  []float64     // durations in microseconds
}

// traceSummary is the per-workload account of a traced run: each
// layer's self time and counts, the time no layer accounts for, and
// how far concurrency makes the parts overlap.
type traceSummary struct {
	Roots      int
	RootTotal  time.Duration // summed root span durations (end to end)
	Unattrib   time.Duration // root self time: inside a root, outside every child
	SelfTotal  time.Duration // summed self time of every span
	Orphans    int           // spans parented by containment
	Unparented int           // orphans no enclosing span was found for
	ByName     map[string]*spanStat
	ByLayer    map[string]time.Duration
}

// summarize parents orphans by containment, copies request IDs down the
// tree, and computes every span's self time: its duration minus the
// union of its children's intervals. spans must be sorted by start.
func summarize(spans []span) *traceSummary {
	sum := &traceSummary{ByName: map[string]*spanStat{}, ByLayer: map[string]time.Duration{}}
	idx := make(map[uint64]int, len(spans))
	byNode := map[string][]int{}
	for i := range spans {
		idx[spans[i].ID] = i
		if !spans[i].Orphan {
			byNode[spans[i].Node] = append(byNode[spans[i].Node], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if !s.Orphan {
			continue
		}
		sum.Orphans++
		// Innermost enclosing non-orphan span of the same node: the
		// latest-starting one whose interval covers s. Scan back a
		// bounded window; concurrency per node is small.
		cands := byNode[s.Node]
		k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > s.Start })
		found := false
		for j, n := k-1, 0; j >= 0 && n < 4096; j, n = j-1, n+1 {
			p := &spans[cands[j]]
			if p.ID != s.ID && p.End >= s.End {
				s.Parent, found = p.ID, true
				break
			}
		}
		if !found {
			sum.Unparented++
		}
	}
	// Parents start no later than their children, so one pass in start
	// order sees every parent's request ID before its children.
	for i := range spans {
		if spans[i].Req == "" && spans[i].Parent != 0 {
			if p, ok := idx[spans[i].Parent]; ok {
				spans[i].Req = spans[p].Req
			}
		}
	}
	children := make(map[uint64][]int, len(spans))
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		self := s.dur() - covered(s, spans, children[s.ID])
		st := sum.ByName[s.Name]
		if st == nil {
			st = &spanStat{}
			sum.ByName[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += self
		st.durs = append(st.durs, float64(s.dur())/float64(time.Microsecond))
		sum.ByLayer[s.layer()] += self
		sum.SelfTotal += self
		if s.Parent == 0 && !s.Orphan {
			sum.Roots++
			sum.RootTotal += s.dur()
			sum.Unattrib += self
		}
	}
	return sum
}

// covered returns how much of s's interval its children cover (the
// length of the union of their intervals clipped to s).
func covered(s *span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// print writes the summary as a fixed-width table.
func (sum *traceSummary) print(w io.Writer, title string) {
	fmt.Fprintf(w, "== span summary: %s ==\n", title)
	names := make([]string, 0, len(sum.ByName))
	for n := range sum.ByName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "self_ms", "total_ms", "median_us")
	for _, n := range names {
		st := sum.ByName[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.3f\n", n, st.Count, ms(st.Self), ms(st.Total), median(st.durs))
	}
	layers := make([]string, 0, len(sum.ByLayer))
	for l := range sum.ByLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "%-28s %12s %8s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-28s %12.3f %7.1f%%\n", l, ms(sum.ByLayer[l]), pct(sum.ByLayer[l], sum.SelfTotal))
	}
	fmt.Fprintf(w, "roots %d, end-to-end (summed root spans) %.3f ms\n", sum.Roots, ms(sum.RootTotal))
	fmt.Fprintf(w, "unattributed remainder (root self time) %.3f ms (%.1f%% of end-to-end)\n",
		ms(sum.Unattrib), pct(sum.Unattrib, sum.RootTotal))
	fmt.Fprintf(w, "summed self time %.3f ms; overlap of concurrent parts %.3f ms\n",
		ms(sum.SelfTotal), ms(sum.SelfTotal-sum.RootTotal))
	fmt.Fprintf(w, "orphan spans parented by containment %d (unparented %d)\n", sum.Orphans, sum.Unparented)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
