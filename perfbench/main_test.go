package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, one level up.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics
// a run prints in step: same workloads, same metric names and units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, names[i])
		}
	}
	e2e := endToEnd(&phase{wall: time.Second, lat: []time.Duration{time.Millisecond}}, 1)
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, a run prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): a run prints %+v", m.Name, m.Unit, got)
		}
	}
	layers := layerValues{}.metrics()
	if len(b.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, a traced run prints %d", len(b.PerLayer), len(layers))
	}
	for _, m := range b.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): a traced run prints %+v", m.Name, m.Unit, got)
		}
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "client.sweep", Node: "client", Req: "r1", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "cluster.sweep", Node: "srv", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "cluster.sweep", Node: "srv", Start: 3 * ms, End: 6 * ms},
		// A store read with no context: charged to the innermost
		// enclosing span of its node, the second handler.
		{ID: 4, Name: "store.get", Node: "srv", Start: 4 * ms, End: 5 * ms, Orphan: true},
	}
	sum := summarize(spans)
	if spans[3].Parent != 3 || spans[3].Req != "r1" {
		t.Fatalf("orphan parented to %d (req %q), want 3 (r1)", spans[3].Parent, spans[3].Req)
	}
	if sum.Roots != 1 || sum.RootTotal != 10*ms {
		t.Fatalf("roots %d total %v", sum.Roots, sum.RootTotal)
	}
	// The root's children cover [1,6]: 5 ms of its 10 are its own.
	if sum.Unattrib != 5*ms {
		t.Fatalf("unattributed %v, want 5ms", sum.Unattrib)
	}
	if got := sum.ByLayer["cluster"]; got != 5*ms {
		t.Fatalf("cluster self %v, want 3ms + 2ms", got)
	}
	if got := sum.ByLayer["store"]; got != ms {
		t.Fatalf("store self %v, want 1ms", got)
	}
	// The handlers overlap by 1 ms, so the parts exceed the whole by it.
	if over := sum.SelfTotal - sum.RootTotal; over != ms {
		t.Fatalf("overlap %v, want 1ms", over)
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Fatalf("median %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Fatalf("p90 %v", got)
	}
	for n, want := range map[int]string{10: "", 20: "p50", 100: "p90", 999: "p90", 1000: "p99", 10000: "p99.9"} {
		if got := tailLabel(n); got != want {
			t.Errorf("tailLabel(%d) = %q, want %q", n, got, want)
		}
	}
}
