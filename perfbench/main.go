// Command perfbench is the repository's end-to-end benchmark: one
// workload per run, driven against an in-process stack (store.Open or
// store.OpenSharded behind server.New on loopback listeners), with every
// answer checked against an oracle built from the generated inputs.
//
// Usage (from the repository root, normally through perfbench/run.py,
// which builds this package first):
//
//	perfbench --workload point-read --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object whose
// metrics are the end-to-end metrics; with --trace 1 the run measures an
// untraced half-phase, a traced phase and another untraced half-phase and
// reports the per-layer metrics plus the tracing overhead (see measure).
// The process exits 1 on any wrong answer or lost acknowledged write.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// holdoutSeed is reserved for confirming a claimed gain: it is not used
// while tuning a change, so a claim that also holds on it was not fitted
// to the seeds it was developed on.
const holdoutSeed = 1000003

// metricDef names one reported metric. The tables below mirror the
// end_to_end and per_layer lists of BENCHMARK.json (checked by a test).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"disk_bits_per_value", "bits", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"wavelettrie.access_ns", "ns", "lower"},
	{"wavelettrie.rank_ns", "ns", "lower"},
	{"wavelettrie.select_ns", "ns", "lower"},
	{"wavelettrie.count_prefix_ns", "ns", "lower"},
	{"wavelettrie.select_prefix_ns", "ns", "lower"},
	{"wavelettrie.allocs_per_read", "count", "lower"},
	{"wavelettrie.bits_per_value", "bits", "lower"},
	{"store.access_ns", "ns", "lower"},
	{"store.rank_ns", "ns", "lower"},
	{"store.select_ns", "ns", "lower"},
	{"store.count_prefix_ns", "ns", "lower"},
	{"store.select_prefix_ns", "ns", "lower"},
	{"store.scan_prefix_ns", "ns", "lower"},
	{"store.count_where_ns", "ns", "lower"},
	{"store.generations", "count", "lower"},
	{"store.filter_skip_ratio", "ratio", "higher"},
	{"store.locate_memo_hit_ratio", "ratio", "higher"},
	{"store.append_batch_us", "us", "lower"},
	{"store.wal_bytes_per_value", "bytes", "lower"},
	{"store.write_amp", "ratio", "lower"},
	{"store.flushes", "count", "lower"},
	{"store.flush_ms_total", "ms", "lower"},
	{"store.flush_builder_mallocs_per_value", "count", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.compact_ms_total", "ms", "lower"},
	{"store.compact_written_bytes", "bytes", "lower"},
	{"store.router.probe_ns", "ns", "lower"},
	{"store.router.bits_per_value", "bits", "lower"},
	{"server.read_self_us", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.cache_invalidations", "count", "lower"},
	{"server.commits", "count", "lower"},
	{"server.values_per_commit", "count", "higher"},
	{"server.commit_wait_a_us", "us", "lower"},
	{"server.commit_wait_b_us", "us", "lower"},
	{"server.batcher_stalls", "count", "lower"},
	{"server.http.read_self_us", "us", "lower"},
	{"server.repl.catchup_s", "s", "lower"},
	{"server.repl.catchup_values_s", "1/s", "higher"},
	{"server.repl.lag_p99_ms", "ms", "lower"},
	{"server.repl.apply_us", "us", "lower"},
	{"server.repl.values_per_apply", "count", "higher"},
	{"server.repl.shipped_bytes_per_value", "bytes", "lower"},
	{"server.repl.evictions", "count", "lower"},
	{"server.repl.reconnects", "count", "lower"},
	{"client.ping_rtt_us", "us", "lower"},
	{"client.append_p50_us", "us", "lower"},
	{"client.append_p99_us", "us", "lower"},
	{"client.sched_late_p99_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"tracing.ops_overhead_pct", "%", "lower"},
	{"tracing.p50_overhead_pct", "%", "lower"},
}

// config is one run's settings; tests shrink the sizes.
type config struct {
	workload string
	seed     int64
	phase    time.Duration // length of one measured phase
	trace    bool
	dir      string // scratch directory for the run's stores
	traceOut string // where a traced run writes its spans
	small    bool   // self-test sizes
	fault    fault  // planted defect, self-tests only
}

// fault plants one defect so the self-tests can prove the oracles bite.
type fault int

const (
	faultNone fault = iota
	faultWrongAnswer
	faultDropAck
)

// tally counts requests and the oracle's findings.
type tally struct {
	attempted int
	failed    int      // failed or wrong requests, lost acknowledged writes
	problems  []string // the first few findings
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// add folds another tally (one connection's) into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		if len(t.problems) < 10 {
			t.problems = append(t.problems, p)
		}
	}
}

// correct reports whether every answer and every acknowledged write
// checked out.
func (t *tally) correct() bool { return t.failed == 0 }

// outcome is what a workload hands back to main.
type outcome struct {
	tally
	e2e    map[string]float64
	layers map[string]float64
	info   map[string]any // sizes, rates and flush policy of the run
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"point-read": runPointRead,
	"ingest":     runIngest,
	"log-tail":   runLogTail,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: point-read, ingest or log-tail")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the result")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for stores and traces")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{workload: *wl, seed: *seed, phase: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: dir,
		traceOut: filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.jsonl.gz", *wl, *seed))}
	out, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info := map[string]any{
		"workload": *wl, "seed": *seed, "holdout_seed": holdoutSeed, "seconds": *seconds,
		"trace": *trace, "commit": *commit, "gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu": runtime.NumCPU(), "go": runtime.Version(), "sync": false,
	}
	for k, v := range out.info {
		info[k] = v
	}
	emit(os.Stdout, map[string]any{"info": info})
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layers
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			os.Exit(1)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	emit(os.Stdout, map[string]any{"correct": out.correct(), "attempted": out.attempted,
		"failed": out.failed, "metrics": metrics})
	if !out.correct() {
		os.Exit(1)
	}
}

// emit prints v as one JSON line.
func emit(w *os.File, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are emitted
	}
	fmt.Fprintln(w, string(b))
}

// sortedKeys returns m's keys in order (deterministic output).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// itoa is strconv.Itoa, short for the many query strings built here.
func itoa(n int) string { return strconv.Itoa(n) }
