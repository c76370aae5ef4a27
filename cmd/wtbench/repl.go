package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/workload"
	"repro/server"
)

// replBenchRecord is one machine-readable row of the "repl" experiment:
// how fast an empty follower catches up to a loaded primary, how far it
// lags under a steady append stream, and what point reads cost on the
// follower versus the primary it mirrors.
type replBenchRecord struct {
	N                  int     `json:"n"`
	CatchupMS          float64 `json:"catchup_ms"`
	CatchupRecsPerMS   float64 `json:"catchup_recs_per_ms"`
	SteadyAppended     int     `json:"steady_appended"`
	SteadyLagMeanRecs  float64 `json:"steady_lag_mean_records"`
	SteadyLagMaxRecs   int64   `json:"steady_lag_max_records"`
	SteadyConvergeMS   float64 `json:"steady_converge_ms"`
	FollowerReadNS     float64 `json:"follower_read_ns"`
	PrimaryReadNS      float64 `json:"primary_read_ns"`
	RYWWaitMS          float64 `json:"ryw_wait_ms"`
	FollowerReadsMatch bool    `json:"follower_reads_match"`
}

// replBenchConfig is the grid the "repl" experiment sweeps.
type replBenchConfig struct {
	Sizes       []int `json:"sizes"`
	ReadIters   int   `json:"read_iters"`
	SteadyBatch int   `json:"steady_batch"`
	SteadyOps   int   `json:"steady_ops"`
	GOMAXPROCS  int   `json:"gomaxprocs"`
}

func replConfig(quick bool) replBenchConfig {
	procs := runtime.GOMAXPROCS(0)
	if quick {
		return replBenchConfig{Sizes: []int{1 << 12}, ReadIters: 2000, SteadyBatch: 64, SteadyOps: 64, GOMAXPROCS: procs}
	}
	return replBenchConfig{Sizes: []int{1 << 14, 1 << 16}, ReadIters: 10000, SteadyBatch: 64, SteadyOps: 256, GOMAXPROCS: procs}
}

// startReplPair starts a loaded primary and an empty follower following
// it, returning both harnesses (the follower's Follow is already
// issued; catch-up is in flight when this returns).
func startReplPair(seq []string) (prim, fol *serveHarness) {
	opts := &server.Options{ReplHeartbeat: 100 * time.Millisecond}
	prim = startServeHarness(opts)
	pc, err := server.Dial(prim.addr)
	if err != nil {
		panic(err)
	}
	defer pc.Close()
	for off := 0; off < len(seq); off += 1024 {
		end := min(off+1024, len(seq))
		if err := pc.AppendBatch(seq[off:end]); err != nil {
			panic(err)
		}
	}
	if err := pc.Flush(); err != nil {
		panic(err)
	}
	fol = startServeHarness(&server.Options{ReplHeartbeat: 100 * time.Millisecond})
	if err := fol.srv.Follow(prim.addr, "bench-follower"); err != nil {
		panic(err)
	}
	return prim, fol
}

// measureRepl runs one grid cell.
func measureRepl(n, readIters, steadyBatch, steadyOps int) replBenchRecord {
	rec := replBenchRecord{N: n}
	seq := workload.URLLog(n, 1, workload.DefaultURLConfig())

	// Catch-up: wall time from Follow to the follower's watermark
	// covering the primary's n preloaded records, shipped as record
	// frames read out of a pinned primary snapshot.
	start := time.Now()
	prim, fol := startReplPair(seq)
	defer prim.stop()
	defer fol.stop()
	fc, err := server.Dial(fol.addr)
	if err != nil {
		panic(err)
	}
	defer fc.Close()
	for {
		if _, ok, err := fc.WaitFor(uint64(n), 30*time.Second); err != nil {
			panic(err)
		} else if ok {
			break
		}
	}
	rec.CatchupMS = float64(time.Since(start).Nanoseconds()) / 1e6
	rec.CatchupRecsPerMS = float64(n) / rec.CatchupMS

	// Steady state: one writer streams acknowledged batches at the
	// primary while a sampler reads both watermarks; lag is their gap at
	// each sample. Converge time is ack-of-last-append to follower
	// coverage — the read-your-writes wait a failover client would see.
	pc, err := server.Dial(prim.addr)
	if err != nil {
		panic(err)
	}
	defer pc.Close()
	var sampleMu sync.Mutex
	var lagSum float64
	var lagMax int64
	samples := 0
	stopSample := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		sc, err := server.Dial(prim.addr)
		if err != nil {
			panic(err)
		}
		defer sc.Close()
		scf, err := server.Dial(fol.addr)
		if err != nil {
			panic(err)
		}
		defer scf.Close()
		for {
			select {
			case <-stopSample:
				return
			case <-time.After(2 * time.Millisecond):
			}
			pst, err := sc.Stats()
			if err != nil {
				panic(err)
			}
			fst, err := scf.Stats()
			if err != nil {
				panic(err)
			}
			lag := int64(pst.Watermark) - int64(fst.Watermark)
			if lag < 0 {
				lag = 0
			}
			sampleMu.Lock()
			lagSum += float64(lag)
			if lag > lagMax {
				lagMax = lag
			}
			samples++
			sampleMu.Unlock()
		}
	}()
	var lastSeq uint64
	batch := make([]string, steadyBatch)
	for i := 0; i < steadyOps; i++ {
		for j := range batch {
			batch[j] = seq[(i*steadyBatch+j)%n]
		}
		if lastSeq, err = pc.AppendBatchSeq(batch); err != nil {
			panic(err)
		}
	}
	rywStart := time.Now()
	if _, ok, err := fc.WaitFor(lastSeq, 30*time.Second); err != nil || !ok {
		panic(fmt.Sprintf("steady-state convergence: ok=%v err=%v", ok, err))
	}
	rec.SteadyConvergeMS = float64(time.Since(rywStart).Nanoseconds()) / 1e6
	close(stopSample)
	<-samplerDone
	sampleMu.Lock()
	if samples > 0 {
		rec.SteadyLagMeanRecs = lagSum / float64(samples)
	}
	rec.SteadyLagMaxRecs = lagMax
	sampleMu.Unlock()
	rec.SteadyAppended = steadyBatch * steadyOps

	// Read-your-writes wait from cold: append once more and time the
	// token wait on the follower.
	seqTok, err := pc.AppendSeq(seq[0])
	if err != nil {
		panic(err)
	}
	rywStart = time.Now()
	if _, ok, err := fc.WaitFor(seqTok, 30*time.Second); err != nil || !ok {
		panic(fmt.Sprintf("RYW wait: ok=%v err=%v", ok, err))
	}
	rec.RYWWaitMS = float64(time.Since(rywStart).Nanoseconds()) / 1e6

	// Follower vs primary point-read latency over the same probe set,
	// with a differential check riding along.
	r := rand.New(rand.NewSource(23))
	probes := make([]string, 64)
	for i := range probes {
		probes[i] = seq[r.Intn(n)]
	}
	rec.FollowerReadsMatch = true
	for _, p := range probes {
		pn, err := pc.Count(p)
		if err != nil {
			panic(err)
		}
		fn, err := fc.Count(p)
		if err != nil {
			panic(err)
		}
		if pn != fn {
			rec.FollowerReadsMatch = false
		}
	}
	rec.FollowerReadNS = measure(readIters, func(i int) {
		if _, err := fc.Count(probes[i&63]); err != nil {
			panic(err)
		}
	})
	rec.PrimaryReadNS = measure(readIters, func(i int) {
		if _, err := pc.Count(probes[i&63]); err != nil {
			panic(err)
		}
	})
	return rec
}

func replBenchRecords(quick bool) []replBenchRecord {
	cfg := replConfig(quick)
	var recs []replBenchRecord
	for _, n := range cfg.Sizes {
		recs = append(recs, measureRepl(n, cfg.ReadIters, cfg.SteadyBatch, cfg.SteadyOps))
	}
	return recs
}

// runREPL prints the replication experiment.
func runREPL(quick bool) {
	fmt.Println("Expectation: an empty follower catches up through record frames streamed")
	fmt.Println("out of a primary snapshot, so catch-up recs/ms tracks the follower's batched")
	fmt.Println("apply rate (far above steady append rates);")
	fmt.Println("steady-state lag stays within a few client batches; follower point reads")
	fmt.Println("cost the same as primary reads (same snapshot path) and agree with them.")
	t := newTable("n", "catchup ms", "catchup recs/ms", "steady lag mean", "steady lag max",
		"converge ms", "ryw wait ms", "follower read ns", "primary read ns", "reads match")
	for _, r := range replBenchRecords(quick) {
		t.row(r.N, fmt.Sprintf("%.1f", r.CatchupMS), fmt.Sprintf("%.0f", r.CatchupRecsPerMS),
			fmt.Sprintf("%.1f", r.SteadyLagMeanRecs), r.SteadyLagMaxRecs,
			fmt.Sprintf("%.1f", r.SteadyConvergeMS), fmt.Sprintf("%.2f", r.RYWWaitMS),
			r.FollowerReadNS, r.PrimaryReadNS, r.FollowerReadsMatch)
	}
	t.flush()
}
