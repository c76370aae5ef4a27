package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallConfig runs a workload at self-test sizes.
func smallConfig(t *testing.T, wl string, trace bool, f fault) config {
	dir := t.TempDir()
	return config{workload: wl, seed: 7, phase: 300 * time.Millisecond, trace: trace,
		dir: filepath.Join(dir, "run"), traceOut: filepath.Join(dir, "trace.jsonl.gz"), small: true, fault: f}
}

func runSmall(t *testing.T, cfg config) *outcome {
	t.Helper()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return out
}

// TestWorkloadsPassOracles runs every workload at tiny sizes, untraced
// and traced: each passes its oracle and reports every metric.
func TestWorkloadsPassOracles(t *testing.T) {
	for _, wl := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			out := runSmall(t, smallConfig(t, wl, trace, faultNone))
			if !out.correct() || out.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d problems=%v", wl, trace, out.correct(), out.attempted, out.problems)
			}
			defs, vals := endToEnd, out.e2e
			if trace {
				defs, vals = perLayer, out.layers
			}
			for _, d := range defs {
				if _, ok := vals[d.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, d.name)
				}
			}
		}
	}
}

// TestPlantedWrongAnswerFails proves the read oracles catch a wrong
// answer served by the store.
func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, wl := range []string{"point-read", "log-tail"} {
		out := runSmall(t, smallConfig(t, wl, false, faultWrongAnswer))
		if out.correct() {
			t.Errorf("%s: a planted wrong answer passed the oracle", wl)
		}
	}
}

// TestPlantedDroppedAckFails proves the write oracles catch an
// acknowledged write that never reached the store.
func TestPlantedDroppedAckFails(t *testing.T) {
	for _, wl := range []string{"ingest", "log-tail"} {
		out := runSmall(t, smallConfig(t, wl, false, faultDropAck))
		if out.correct() {
			t.Errorf("%s: a planted dropped ack passed the oracle", wl)
		}
	}
}

// TestIngestWritesWholeRounds checks that ingest fills whole rounds,
// each in a store of its own, and that every one passes the oracle.
func TestIngestWritesWholeRounds(t *testing.T) {
	out := runSmall(t, smallConfig(t, "ingest", true, faultNone))
	rounds, _ := out.info["rounds"].(int)
	size, _ := out.info["round_values"].(int)
	written, _ := out.info["values_written"].(int)
	// Three phases (a traced run), each of one round at least.
	if rounds < 3 || written != rounds*size || !out.correct() {
		t.Errorf("rounds %d of %d values, %d written, correct=%v problems=%v", rounds, size, written, out.correct(), out.problems)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables of this
// program and the repository's BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}

// TestAttribute checks the span attribution rule: a store span belongs
// to the client span with the same op and argument that contains it;
// nested store spans of one snapshot are not counted twice; a group
// commit belongs to every append request it blocked.
func TestAttribute(t *testing.T) {
	clients := []*clientLog{
		{name: "a", spans: []span{
			{key: key{op: opAccess, n: 5}, start: 0, end: 100},
			{key: key{op: opScanPrefix, arg: "h", n: 2}, start: 100, end: 300},
			{key: key{op: opAppend}, start: 300, end: 400},
		}},
		{name: "b", spans: []span{
			{key: key{op: opAccess, n: 5}, start: 10, end: 50},
			{key: key{op: opAppend}, start: 310, end: 390},
		}},
	}
	store := []span{
		{key: key{op: opAccess, n: 5}, start: 60, end: 90, snap: 1, parent: -1}, // a's access (b's has ended)
		{key: key{op: opScanPrefix, arg: "h", n: 2}, start: 110, end: 250, snap: 2, parent: -1},
		{key: key{op: opAccess, n: 9}, start: 120, end: 130, snap: 2, parent: -1}, // nested in the scan
		{key: key{op: opAccess, n: 7}, start: 260, end: 270, snap: 3, parent: -1}, // no matching client span
		{key: key{op: opAppend}, start: 320, end: 380, parent: -1},                // coalesced commit
	}
	a := attribute(clients, store)
	if got := len(a.top); got != 4 {
		t.Fatalf("top-level spans %d, want 4", got)
	}
	want := [][]int64{{30, 140, 60}, {0, 60}}
	for c := range want {
		for i, w := range want[c] {
			if a.child[c][i] != w {
				t.Errorf("child[%d][%d] = %d, want %d", c, i, a.child[c][i], w)
			}
		}
	}
}
