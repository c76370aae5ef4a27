package main

import (
	"time"

	"repro/server"
)

// phaseResult is what one measured phase of a workload produced.
type phaseResult struct {
	tally
	lat   []*hist       // end-to-end latencies, one histogram per measuring connection
	logs  []*clientLog  // client spans, traced phases only
	bytes float64       // user bytes acknowledged (the write-amplification base)
	took  time.Duration // how long it measured, when not the d it was asked for
}

// length is how long the phase measured, asked to run for d: ingest
// ends its phases on a round boundary near d instead.
func (p *phaseResult) length(d time.Duration) time.Duration {
	if p.took > 0 {
		return p.took
	}
	return d
}

// phaseFunc runs one phase of a workload for d, tracing its client
// calls when traced is set.
type phaseFunc func(d time.Duration, traced bool) (*phaseResult, error)

// traceSpec is what a workload's traced run differs in.
type traceSpec struct {
	// live returns a client that reads the wt_* registry and the wrapped
	// backends, the primary's first, then the follower's. Ingest replaces
	// its stack between rounds; the other workloads keep one (fixed).
	live     func() (*server.Client, []*wrapBackend)
	selfName string   // server.read_self_us or server.http.read_self_us; "" without reads
	ladder   ladder   // snap and recorded are filled in here
	idle     []string // per-layer name prefixes of layers the workload leaves idle
	// derive adds the workload's own layer metrics of the traced phase.
	derive func(layers map[string]float64, tr *tracer)
}

// fixed is traceSpec.live for a workload that keeps one stack.
func fixed(c *server.Client, wrapped ...*wrapBackend) func() (*server.Client, []*wrapBackend) {
	return func() (*server.Client, []*wrapBackend) { return c, wrapped }
}

// measure runs a workload's phases on its stack. Untraced, that is one
// phase of cfg.phase, which gives the end-to-end metrics. Traced, it is
// an untraced half-phase, a traced phase of cfg.phase and another
// untraced half-phase, all on one stack: the per-layer metrics come from
// the traced phase and tracing.* from its loss against the two halves.
func measure(cfg config, out *outcome, phase phaseFunc, sp traceSpec) error {
	untraced := cfg.phase
	if cfg.trace {
		untraced /= 2 // the other half runs after the traced phase
	}
	hs := startHeapSampler()
	ph, err := phase(untraced, false)
	out.e2e["heap_peak_mb"] = hs.stopMiB()
	if err != nil {
		return err
	}
	summarize(out.e2e, ph.lat, ph.length(untraced))
	out.add(ph.tally)
	if !cfg.trace {
		return nil
	}

	layers := out.layers
	c, wrapped := sp.live()
	before, err := readRegistry(c)
	if err != nil {
		return err
	}
	tr := &tracer{}
	for _, wb := range wrapped {
		wb.tr.Store(tr)
	}
	gs := startGenSampler(func() server.Backend {
		_, wrapped := sp.live()
		return wrapped[0].Backend
	})
	rd := startRuntimeDelta()
	tp, err := phase(cfg.phase, true)
	layers["store.generations"] = gs.stop()
	if err != nil {
		return err
	}
	out.add(tp.tally)
	rd.into(layers, tp.attempted)
	c, wrapped = sp.live()
	for _, wb := range wrapped {
		wb.tr.Store(nil)
	}
	after, err := readRegistry(c)
	if err != nil {
		return err
	}
	u2, err := phase(untraced, false)
	if err != nil {
		return err
	}
	out.add(u2.tally)
	second, traced := map[string]float64{}, map[string]float64{}
	summarize(second, u2.lat, u2.length(untraced))
	summarize(traced, tp.lat, tp.length(cfg.phase))
	overhead(layers, out.e2e, second, traced)

	registryLayers(layers, before, after, tp.bytes)
	spanLayers(layers, tp.logs, tr, sp.selfName)
	if sp.derive != nil {
		sp.derive(layers, tr)
	}
	lad := sp.ladder
	_, wrapped = sp.live()
	lad.snap = wrapped[0].Backend.Snap()
	for _, l := range tp.logs {
		for _, s := range l.spans {
			lad.recorded = append(lad.recorded, s.key)
		}
	}
	replay, err := lad.run(layers)
	if err != nil {
		return err
	}
	zeroLayers(layers, sp.idle...)
	return writeTrace(cfg.traceOut, tp.logs, tr, replay)
}

// overhead records how much the traced phase lost against the untraced
// half-phases run just before and just after it, in percent of their
// mean: a store that grows during the run (ingest, log-tail) then slows
// both sides alike instead of reading as tracing cost.
func overhead(layers, before, after, traced map[string]float64) {
	ops := (before["ops_s"] + after["ops_s"]) / 2
	p50 := (before["p50_us"] + after["p50_us"]) / 2
	layers["tracing.ops_overhead_pct"] = 100 * ratio(ops-traced["ops_s"], ops)
	layers["tracing.p50_overhead_pct"] = 100 * ratio(traced["p50_us"]-p50, p50)
}

// pingRTT records the loopback floor: the median of 1000 pings.
func pingRTT(c *server.Client, layers map[string]float64) {
	var us []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if c.Ping() != nil {
			continue
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	layers["client.ping_rtt_us"] = median(us)
}
