package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/server"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsToUs converts a sample of nanosecond durations to microseconds.
func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// ratio is a/b, 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Latencies go into log-linear histograms, 2^subBits buckets per power
// of two (0.4% wide): their memory does not grow with the number of
// requests, so a faster program does not read as a bigger heap.
const (
	subBits = 8
	buckets = (64 - subBits + 1) << subBits
)

func bucketOf(ns int64) int {
	if ns < 1<<subBits {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1
	return (e-subBits+1)<<subBits + int(uint64(ns)>>(e-subBits)) - 1<<subBits
}

// bucketRange is the [lower, lower+width) span of bucket i in ns.
func bucketRange(i int) (lower, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	g, m := i>>subBits, i&(1<<subBits-1)
	shift := g - 1
	return float64(uint64(m+1<<subBits) << shift), float64(uint64(1) << shift)
}

// hist is one connection's weighted latency histogram over a phase.
type hist struct {
	weight float64
	counts []float64
}

// add records a request that took lat and carried w values.
func (h *hist) add(lat time.Duration, w int) {
	if h.counts == nil {
		h.counts = make([]float64, buckets)
	}
	h.counts[bucketOf(int64(lat))] += float64(w)
	h.weight += float64(w)
}

func (h *hist) merge(o *hist) {
	if o.counts == nil {
		return
	}
	if h.counts == nil {
		h.counts = make([]float64, buckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.weight += o.weight
}

// quantile interpolates the q-quantile within its bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	target, seen := q*h.weight, 0.0
	for i, c := range h.counts {
		if c > 0 && seen+c >= target {
			lower, width := bucketRange(i)
			return lower + width*(target-seen)/c
		}
		seen += c
	}
	return 0
}

// summarize fills ops_s, p50_us and p99_us from the histograms of one
// phase's connections: the completed weight over the phase length d and
// the quantiles of the pooled histogram, so a flush or compaction stall
// anywhere in the phase counts in full. Latencies are weighted by the
// values a request carried.
func summarize(m map[string]float64, hs []*hist, d time.Duration) {
	var all hist
	for _, h := range hs {
		all.merge(h)
	}
	m["ops_s"] = all.weight / d.Seconds()
	m["p50_us"] = all.quantile(0.5) / 1e3
	m["p99_us"] = all.quantile(0.99) / 1e3
}

// heapSampler tracks the live Go heap (as of the latest GC) during a
// measured phase through runtime/metrics, which reads without stopping
// the world, and reports the highest one-second moving average. Live
// rather than allocated bytes: garbage awaiting the next GC depends on
// GC timing, not on what the program keeps. Averaged over a second
// rather than instantaneous: the largest compaction of an ingest phase
// holds its peak memory for about 50 ms, and whether a GC ends inside
// that moment (reading 66 rather than 48 MiB, measured) is luck; an
// average counts a transient by how much memory it holds for how long.
// The average moves with every sample, so the figure does not depend on
// where second boundaries would fall around that transient.
type heapSampler struct {
	peak float64 // guarded by the sampler goroutine until stop
	stop chan struct{}
	wg   sync.WaitGroup
}

const (
	heapMetric = "/gc/heap/live:bytes"
	heapTick   = 20 * time.Millisecond
	heapWindow = int(time.Second / heapTick) // samples per average
)

func startHeapSampler() *heapSampler {
	// The live figure is as of the latest GC: collect first, so set-up
	// garbage (stores closed by setupTimes, load buffers) does not read
	// as the phase's.
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapTick)
		defer tick.Stop()
		window := make([]float64, heapWindow) // the last second's samples
		var sum float64
		for n := 0; ; n++ {
			metrics.Read(sample)
			v := float64(sample[0].Value.Uint64())
			sum += v - window[n%heapWindow]
			window[n%heapWindow] = v
			if n+1 >= heapWindow {
				h.peak = math.Max(h.peak, sum/float64(heapWindow))
			}
			select {
			case <-h.stop:
				// A phase shorter than a window has only its own mean.
				if n+1 < heapWindow {
					h.peak = sum / float64(n+1)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMiB stops sampling and returns the peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak / (1 << 20)
}

// runtimeDelta measures GC and allocation over a phase.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// into records the runtime.* layer metrics over ops operations.
func (d *runtimeDelta) into(layers map[string]float64, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layers["runtime.gc_cycles"] = float64(after.NumGC - d.before.NumGC)
	layers["runtime.gc_pause_ms_total"] = float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
	layers["runtime.alloc_bytes_per_op"] = ratio(float64(after.TotalAlloc-d.before.TotalAlloc), float64(ops))
}

// genSampler averages the generation count a reader would see over a
// phase, sampled every 100ms.
type genSampler struct {
	sum, n float64
	stopCh chan struct{}
	done   chan struct{}
}

func startGenSampler(backend func() server.Backend) *genSampler {
	g := &genSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			g.sum += float64(len(backend().Generations()))
			g.n++
			select {
			case <-g.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// stop ends sampling and returns the mean.
func (g *genSampler) stop() float64 {
	close(g.stopCh)
	<-g.done
	return ratio(g.sum, g.n)
}
