package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/server"
	"repro/store"
)

// Log-tail writer settings. The rate is about a quarter of ingest
// capacity and stays below the follower's eviction point: a co-located
// follower under saturating ingest is evicted and reconnects.
const (
	tailRate       = 4000 // values per second
	tailBatch      = 16   // values per append request
	tailShards     = 4
	tailFlush      = 4096 // FlushThreshold per shard
	tailRecent     = 16 << 10
	tailFollowerID = "perfbench-follower"
	maxDepth       = 3   // path segments of the deepest URL the generator makes
	scanPage       = 100 // matches per /v1/scanprefix page
)

// runLogTail is writes beside reads plus a replica: a 4-shard store with
// the payload schema, preloaded, written by an open-loop binary writer
// at a fixed rate and read by a closed-loop HTTP reader, while an
// in-process follower applies the replication stream. Reads stitch the
// memtable and many generations across shards through the router and
// the k-way prefix merge; every append changes the snapshot
// fingerprint, so the result cache is bypassed; flushes run under reads.
func runLogTail(cfg config) (*outcome, error) {
	n0, poolSize := 1<<18, 1<<17
	if cfg.small {
		n0, poolSize = 1<<12, 1<<10
	}
	w := writeStream{tag: 'w', pool: urlValues(poolSize, cfg.seed), seed: uint64(cfg.seed)}
	or := newStreamOracle(w)
	vals := make([]string, n0)
	rows := make([]store.Row, n0)
	for i := range vals {
		vals[i], rows[i] = w.value(i), w.row(i)
	}
	open := func(dir string) (*store.ShardedStore, error) {
		ss, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: tailShards,
			Store: store.Options{FlushThreshold: tailFlush, Columns: schema}})
		if err != nil {
			return nil, err
		}
		if err := preload(server.ForSharded(ss), vals, rows); err != nil {
			ss.Close()
			return nil, err
		}
		// Flush and compact to one generation per shard: every run starts
		// the phase from the same state (a settle of the background
		// compactor would leave a timing-dependent generation layout).
		if err := ss.Flush(); err != nil {
			ss.Close()
			return nil, err
		}
		if err := ss.Compact(); err != nil {
			ss.Close()
			return nil, err
		}
		return ss, nil
	}
	ss, setupS, err := setupTimes(3, cfg.dir, open, (*store.ShardedStore).Close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	stk, err := serve(server.ForSharded(ss), cfg, true, ss.Close)
	if err != nil {
		ss.Close()
		return nil, err
	}
	fol, err := startFollower(cfg)
	if err != nil {
		stk.shutdown()
		return nil, err
	}
	out, err := logTailPhases(cfg, stk, fol, ss, or, n0, setupS)
	if ferr := fol.shutdown(); err == nil && ferr != nil {
		err = fmt.Errorf("follower shutdown: %w", ferr)
	}
	if serr := stk.shutdown(); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	out.info = map[string]any{"preload": n0, "shards": tailShards, "flush_threshold": tailFlush,
		"max_generations": "default 8", "schema": "score:u64,meta:bytes",
		"writer":   fmt.Sprintf("open loop, 1 binary conn, %d values/s in batches of %d", tailRate, tailBatch),
		"reader":   "closed loop, 1 HTTP conn: access 60% (half in newest 16k), countprefix 10%, scanprefix 20% (pages of 100), countwhere 10% (full path + score>=x)",
		"follower": "in-process, plain store, bootstraps from empty"}
	return out, nil
}

// follower is the in-process replica: a server with no listener.
type follower struct {
	st  *store.Store
	wb  *wrapBackend
	b   server.Backend
	srv *server.Server
}

func startFollower(cfg config) (*follower, error) {
	st, err := store.Open(filepath.Join(cfg.dir, "follower"), &store.Options{Columns: schema})
	if err != nil {
		return nil, err
	}
	f := &follower{st: st, b: server.ForStore(st)}
	if cfg.trace {
		f.wb = wrap(f.b, true, faultNone)
		f.b = f.wb
	}
	f.srv = server.New(f.b, &server.Options{SlowOpLog: func(string, ...any) {}})
	return f, nil
}

func (f *follower) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if cerr := f.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// waitLen polls until the follower holds n values.
func (f *follower) waitLen(n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for f.st.Len() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at %d of %d values after %s", f.st.Len(), n, limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// streamOracle answers prefix questions about a writeStream. The stream
// repeats its pool with a fixed period, so prefix positions are the
// matching offsets within one period, repeated.
type streamOracle struct {
	w        writeStream
	period   int
	offs     map[string][]int32
	prefixes []string // by descending frequency: Zipf rank order
	paths    []int32  // offsets in a period holding a full (depth-3) path
}

func newStreamOracle(w writeStream) *streamOracle {
	o := &streamOracle{w: w, period: len(w.pool) / 2}
	period := make([]string, o.period)
	for i := range period {
		period[i] = w.value(i)
	}
	flat := newFlatOracle(period)
	o.offs, o.prefixes = flat.prefPos, flat.prefixes
	// A full path's matches are its own occurrences plus those of the
	// paths it is a string prefix of ("h/a1/b2/c1" also matches
	// ".../c12").
	distinct := sortedKeys(flat.pos)
	for i, v := range period {
		if strings.Count(v, "/") != maxDepth {
			continue
		}
		o.paths = append(o.paths, int32(i))
		if _, ok := o.offs[v]; ok {
			continue
		}
		var offs []int32
		for j := sort.SearchStrings(distinct, v); j < len(distinct) && strings.HasPrefix(distinct[j], v); j++ {
			offs = append(offs, flat.pos[distinct[j]]...)
		}
		sort.Slice(offs, func(a, b int) bool { return offs[a] < offs[b] })
		o.offs[v] = offs
	}
	return o
}

func (o *streamOracle) countPrefix(p string, n int) int {
	offs := o.offs[p]
	return n/o.period*len(offs) + rankIn(offs, n%o.period)
}

func (o *streamOracle) selectPrefix(p string, idx int) int {
	offs := o.offs[p]
	return idx/len(offs)*o.period + int(offs[idx%len(offs)])
}

// countWhere counts prefix matches with score >= x below lo and below
// hi (lo <= hi) in one walk.
func (o *streamOracle) countWhere(p string, x uint64, lo, hi int) (int, int) {
	cl, ch := 0, 0
	for idx := 0; ; idx++ {
		pos := o.selectPrefix(p, idx)
		if pos >= hi {
			return cl, ch
		}
		if o.w.score(pos) >= x {
			ch++
			if pos < lo {
				cl++
			}
		}
	}
}

// tailRead is one recorded gateway read with the writer's progress
// around it: acked when it was sent, sent when it returned.
type tailRead struct {
	k           key
	acked, sent int
	count       int
	positions   []int
	values      []string
	value       string
}

// writer is the open-loop log shipper.
type writer struct {
	w           writeStream
	c           *server.Client
	next        int          // next stream index to send
	sent, acked atomic.Int64 // stream progress, read by the reader
}

// writePhase is what the writer produced in one phase.
type writePhase struct {
	lat, late []int64 // ns from due time to ack; ns the send started late
	tally
	log    *clientLog
	values int
	bytes  float64
}

// run sends one batch every tailBatch/tailRate seconds until deadline,
// timing each from its due time.
func (wr *writer) run(deadline time.Time, traced bool) *writePhase {
	ph := &writePhase{log: &clientLog{name: "writer"}}
	interval := time.Duration(float64(time.Second) * tailBatch / tailRate)
	vals := make([]string, tailBatch)
	rows := make([]store.Row, tailBatch)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return ph
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for j := range vals {
			vals[j], rows[j] = wr.w.value(wr.next+j), wr.w.row(wr.next+j)
		}
		wr.sent.Store(int64(wr.next + tailBatch))
		s0 := nowNS()
		sendAt := time.Now()
		err := wr.c.AppendBatchRows(vals, rows)
		if traced {
			ph.log.spans = append(ph.log.spans, span{key: key{op: opAppend}, start: s0, end: nowNS(), parent: -1})
		}
		ph.attempted++
		if err != nil {
			// The batch may or may not be stored: the stream cannot go on.
			ph.fail("append: %v", err)
			return ph
		}
		ph.lat = append(ph.lat, int64(time.Since(due)))
		ph.late = append(ph.late, int64(sendAt.Sub(due)))
		for j := 0; j < tailBatch; j++ {
			ph.bytes += wr.w.userBytes(wr.next + j)
		}
		wr.next += tailBatch
		ph.values += tailBatch
		wr.acked.Store(int64(wr.next))
	}
}

// reader is the closed-loop HTTP gateway client.
type reader struct {
	base  string
	hc    *http.Client
	r     *rand.Rand
	prefZ *rand.Zipf
	or    *streamOracle
	wr    *writer
}

// next draws one gateway read against the writer's acked progress.
func (rd *reader) next(acked int) (key, string) {
	x := rd.r.Intn(100)
	p := rd.or.prefixes[rd.prefZ.Uint64()]
	switch {
	case x < 60:
		pos := rd.r.Intn(acked)
		if x < 30 {
			pos = acked - 1 - rd.r.Intn(min(tailRecent, acked))
		}
		return key{op: opAccess, n: pos}, "/v1/access?pos=" + itoa(pos)
	case x < 70:
		return key{op: opCountPrefix, arg: p}, "/v1/countprefix?p=" + url.QueryEscape(p)
	case x < 90:
		from := rd.r.Intn(rd.or.countPrefix(p, acked))
		return key{op: opScanPrefix, arg: p, n: from},
			"/v1/scanprefix?p=" + url.QueryEscape(p) + "&from=" + itoa(from) + "&n=" + itoa(scanPage)
	default:
		// Count one full request path (a depth-3 URL, drawn by how often
		// it occurs) with a score threshold. CountWhere walks every prefix
		// match, so a host prefix (up to ~10^5 matches, 0.1-0.8 s a call)
		// would set the reader's pace alone; a full path matches at most a
		// few thousand. store.count_where_ns replays both kinds.
		p = rd.or.w.value(int(rd.or.paths[rd.r.Intn(len(rd.or.paths))]))
		x := rd.r.Intn(scoreRange)
		return key{op: opCountWhere, arg: p, n: x},
			"/v1/countwhere?p=" + url.QueryEscape(p) + "&pred=" + url.QueryEscape("score>="+itoa(x))
	}
}

// get issues one gateway read and decodes the reply into rec.
func (rd *reader) get(path string, rec *tailRead) error {
	resp, err := rd.hc.Get(rd.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	var r struct {
		Value     string   `json:"value"`
		Count     int      `json:"count"`
		Positions []int    `json:"positions"`
		Values    []string `json:"values"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	rec.value, rec.count, rec.positions, rec.values = r.Value, r.Count, r.Positions, r.Values
	return nil
}

// readPhaseTail is what the reader produced in one phase.
type readPhaseTail struct {
	lat hist
	tally
	log *clientLog
}

// run reads until deadline, checking every answer against the oracle as
// it arrives (and then dropping it, so the benchmark's own memory does
// not grow with the program's speed).
func (rd *reader) run(deadline time.Time, traced bool) *readPhaseTail {
	ph := &readPhaseTail{log: &clientLog{name: "http"}}
	for {
		acked := int(rd.wr.acked.Load())
		k, path := rd.next(acked)
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		rec := tailRead{k: k, acked: acked}
		s0 := nowNS()
		err := rd.get(path, &rec)
		took := time.Since(t0)
		if traced {
			ph.log.spans = append(ph.log.spans, span{key: k, start: s0, end: nowNS(), parent: -1})
		}
		rec.sent = int(rd.wr.sent.Load())
		ph.attempted++
		if err != nil {
			ph.fail("read failed: %v", err)
			continue
		}
		if msg := rd.or.check(rec); msg != "" {
			ph.fail("%s", msg)
			continue
		}
		ph.lat.add(took, 1)
	}
	return ph
}

// check compares one gateway read with the stream oracle: values below
// the acked length are exact, counts lie between what was acked when
// the read was sent and what was sent when it returned.
func (o *streamOracle) check(r tailRead) string {
	switch r.k.op {
	case opAccess:
		if want := o.w.value(r.k.n); r.value != want {
			return fmt.Sprintf("access(%d) = %q, want %q", r.k.n, r.value, want)
		}
	case opCountPrefix:
		lo, hi := o.countPrefix(r.k.arg, r.acked), o.countPrefix(r.k.arg, r.sent)
		if r.count < lo || r.count > hi {
			return fmt.Sprintf("countprefix(%q) = %d, want within [%d, %d]", r.k.arg, r.count, lo, hi)
		}
	case opScanPrefix:
		if len(r.positions) != len(r.values) {
			return fmt.Sprintf("scanprefix(%q, %d): %d positions, %d values", r.k.arg, r.k.n, len(r.positions), len(r.values))
		}
		if want := min(scanPage, o.countPrefix(r.k.arg, r.acked)-r.k.n); len(r.positions) < want {
			return fmt.Sprintf("scanprefix(%q, %d): %d matches, want at least %d", r.k.arg, r.k.n, len(r.positions), want)
		}
		for i, pos := range r.positions {
			if want := o.selectPrefix(r.k.arg, r.k.n+i); pos != want || r.values[i] != o.w.value(pos) {
				return fmt.Sprintf("scanprefix(%q, %d) match %d = (%d, %q), want (%d, %q)",
					r.k.arg, r.k.n, i, pos, r.values[i], want, o.w.value(want))
			}
		}
	case opCountWhere:
		lo, hi := o.countWhere(r.k.arg, uint64(r.k.n), r.acked, r.sent)
		if r.count < lo || r.count > hi {
			return fmt.Sprintf("countwhere(%q, score>=%d) = %d, want within [%d, %d]", r.k.arg, r.k.n, r.count, lo, hi)
		}
	}
	return ""
}

func logTailPhases(cfg config, stk *stack, fol *follower, ss *store.ShardedStore, or *streamOracle, n0 int, setupS float64) (*outcome, error) {
	wc, err := server.Dial(stk.addr)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	out := &outcome{e2e: map[string]float64{"setup_s": setupS}, layers: map[string]float64{}}
	layers := out.layers
	pingRTT(wc, layers)

	// Follower bootstrap: catch-up from the preloaded primary.
	t0 := time.Now()
	if err := fol.srv.Follow(stk.addr, tailFollowerID); err != nil {
		return nil, err
	}
	if err := fol.waitLen(n0, time.Minute); err != nil {
		return nil, err
	}
	catchup := time.Since(t0).Seconds()
	layers["server.repl.catchup_s"] = catchup
	layers["server.repl.catchup_values_s"] = float64(n0) / catchup
	// As on the primary, the phase starts from one follower generation.
	if err := fol.st.Flush(); err != nil {
		return nil, err
	}
	if err := fol.st.Compact(); err != nil {
		return nil, err
	}

	wr := &writer{w: or.w, c: wc, next: n0}
	wr.sent.Store(int64(n0))
	wr.acked.Store(int64(n0))
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	r := rand.New(rand.NewSource(cfg.seed*7919 + 3))
	rd := &reader{base: stk.httpURL, hc: &http.Client{Transport: transport}, r: r,
		prefZ: rand.NewZipf(r, 1.1, 1, uint64(len(or.prefixes)-1)), or: or, wr: wr}

	var tracedWrite *writePhase // the traced phase's writer, for derive
	phase := func(d time.Duration, traced bool) (*phaseResult, error) {
		deadline := time.Now().Add(d)
		var wp *writePhase
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			wp = wr.run(deadline, traced)
		}()
		rp := rd.run(deadline, traced)
		wg.Wait()
		ph := &phaseResult{lat: []*hist{&rp.lat}, bytes: wp.bytes}
		ph.add(wp.tally)
		ph.add(rp.tally)
		if traced {
			ph.logs = []*clientLog{rp.log, wp.log}
			tracedWrite = wp
			// Let the follower apply the phase before the tracer comes off,
			// so every primary commit has its follower apply recorded.
			if err := fol.waitLen(wr.next, time.Minute); err != nil {
				return nil, err
			}
		}
		return ph, nil
	}
	derive := func(layers map[string]float64, tr *tracer) {
		replLayers(layers, tr)
		layers["client.append_p50_us"] = quantile(nsToUs(tracedWrite.lat), 0.5)
		layers["client.append_p99_us"] = quantile(nsToUs(tracedWrite.lat), 0.99)
		layers["client.sched_late_p99_ms"] = quantile(nsToUs(tracedWrite.late), 0.99) / 1e3
	}
	err = measure(cfg, out, phase, traceSpec{live: fixed(wc, stk.wb, fol.wb),
		selfName: "server.http.read_self_us", ladder: ladder{sharded: ss},
		idle: []string{"server.read_self_us"}, derive: derive})
	if err != nil {
		return nil, err
	}

	// Drain: the follower must converge on the primary's content.
	if err := wc.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	primary := stk.b.Snap()
	if err := fol.waitLen(primary.Len(), time.Minute); err != nil {
		out.fail("%v", err)
	} else if pf, ff := primary.ContentFingerprint(), fol.b.Snap().ContentFingerprint(); pf != ff {
		out.fail("follower content fingerprint %016x, primary %016x", ff, pf)
	}
	if got := primary.Len(); got != wr.next {
		out.fail("primary holds %d values, writer had %d acknowledged", got, wr.next)
	}
	bits, err := dirBits(ss.Dir())
	if err != nil {
		return nil, err
	}
	out.e2e["disk_bits_per_value"] = bits / float64(primary.Len())

	return out, nil
}

// replLayers derives the follower metrics of a traced phase: the apply
// time and size, and the lag from each primary commit to the follower
// apply that covers its last value.
func replLayers(layers map[string]float64, tr *tracer) {
	var apply, lag []float64
	values := 0
	for _, s := range tr.apply {
		apply = append(apply, float64(s.dur())/1e3)
		values += int(s.vals)
	}
	layers["server.repl.apply_us"] = median(apply)
	layers["server.repl.values_per_apply"] = ratio(float64(values), float64(len(tr.apply)))
	for _, s := range tr.store {
		if s.key.op != opAppend {
			continue
		}
		last := s.seq + int64(s.vals) - 1
		i := sort.Search(len(tr.apply), func(i int) bool {
			a := tr.apply[i]
			return a.seq+int64(a.vals) > last
		})
		if i < len(tr.apply) && tr.apply[i].seq <= last {
			lag = append(lag, float64(tr.apply[i].end-s.end)/1e6)
		}
	}
	layers["server.repl.lag_p99_ms"] = quantile(lag, 0.99)
}
