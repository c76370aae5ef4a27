package main

import (
	"fmt"
	"runtime"

	wavelettrie "repro"
	"repro/server"
	"repro/store"
)

// replayPerOp caps the replayed probes per op kind, so the ladder costs
// well under a second whatever the phase recorded.
const replayPerOp = 1000

// ladder replays the reads a traced phase recorded one layer down,
// outside the server: against the Frozen core loaded from the pinned
// snapshot's bytes (wavelettrie.*) and through the sharded router alone
// (store.router.*). An op kind the workload does not issue reads 0.
type ladder struct {
	snap     server.Snap         // unwrapped pinned snapshot
	sharded  *store.ShardedStore // nil for a plain store
	recorded []key
}

func (l ladder) run(layers map[string]float64) ([]*clientLog, error) {
	data, err := l.snap.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("marshal snapshot: %w", err)
	}
	fz, err := wavelettrie.LoadFrozen(data)
	if err != nil {
		return nil, fmt.Errorf("load frozen: %w", err)
	}
	layers["wavelettrie.bits_per_value"] = ratio(float64(fz.SizeBits()), float64(fz.Len()))
	probes := l.probes()

	frozenLog := &clientLog{name: "frozen"}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	reads := 0
	for op := opAccess; op <= opSelectPrefix; op++ {
		for _, k := range probes[op] {
			t0 := nowNS()
			switch op {
			case opAccess:
				sink = fz.Access(k.n)
			case opRank:
				sinkInt = fz.Rank(k.arg, k.n)
			case opSelect:
				sinkInt, _ = fz.Select(k.arg, k.n)
			case opCountPrefix:
				sinkInt = fz.CountPrefix(k.arg)
			case opSelectPrefix:
				sinkInt, _ = fz.SelectPrefix(k.arg, k.n)
			}
			frozenLog.spans = append(frozenLog.spans, span{key: k, start: t0, end: nowNS(), parent: -1})
			reads++
		}
	}
	runtime.ReadMemStats(&ms1)
	layers["wavelettrie.allocs_per_read"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(reads))
	opMedians(frozenLog.spans, "wavelettrie.", opSelectPrefix, layers)

	routerLog := &clientLog{name: "router"}
	layers["store.router.probe_ns"] = 0
	layers["store.router.bits_per_value"] = 0
	if l.sharded != nil {
		for _, k := range probes[opAccess] {
			t0 := nowNS()
			_, _, back := l.sharded.RouterProbe(k.n)
			routerLog.spans = append(routerLog.spans, span{key: k, start: t0, end: nowNS(), parent: -1})
			if back != k.n {
				return nil, fmt.Errorf("router probe of %d came back as %d", k.n, back)
			}
		}
		layers["store.router.probe_ns"] = medianDur(routerLog.spans)
		layers["store.router.bits_per_value"] = ratio(float64(l.sharded.RouterInfo().Bits), float64(l.snap.Len()))
	}
	return []*clientLog{frozenLog, routerLog}, nil
}

// probes groups the recorded reads by op, keeping every k-th one when
// there are more than replayPerOp.
func (l ladder) probes() [opAppend + 1][]key {
	var by [opAppend + 1][]key
	for _, k := range l.recorded {
		by[k.op] = append(by[k.op], k)
	}
	for op := range by {
		if len(by[op]) > replayPerOp {
			stride := len(by[op]) / replayPerOp
			kept := by[op][:0]
			for i := 0; i < len(by[op]) && len(kept) < replayPerOp; i += stride {
				kept = append(kept, by[op][i])
			}
			by[op] = kept
		}
	}
	return by
}

// opMedians records prefix+op+"_ns" as the median span of each read op
// up to last, 0 for an op without spans.
func opMedians(spans []span, prefix string, last uint8, layers map[string]float64) {
	var by [opAppend + 1][]span
	for _, s := range spans {
		by[s.key.op] = append(by[s.key.op], s)
	}
	for op := opAccess; op <= last; op++ {
		layers[prefix+opNames[op]+"_ns"] = medianDur(by[op])
	}
}

// medianDur is the median span duration in nanoseconds.
func medianDur(spans []span) float64 {
	ds := make([]float64, len(spans))
	for i, s := range spans {
		ds[i] = float64(s.dur())
	}
	return median(ds)
}

// Sinks keep replayed results alive so the calls are not optimized out.
var (
	sink    string
	sinkInt int
)
