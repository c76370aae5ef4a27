package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/server"
	"repro/store"
)

// scoreRange bounds the score column, so count_where thresholds cut a
// known share of rows.
const scoreRange = 1000

// writeStream is one writer's deterministic sequence: value i and its
// payload row (score, meta) follow from the seed alone, and meta names
// the writer and i, so a reopened store can be checked without any
// record of what was sent.
type writeStream struct {
	tag  byte // 'a' or 'b' (ingest connections), 'w' (log-tail writer)
	pool []string
	seed uint64
}

func (w writeStream) value(i int) string { return w.pool[(i*2+int(w.tag&1))%len(w.pool)] }

func (w writeStream) score(i int) uint64 {
	x := w.seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(w.tag)<<56
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x % scoreRange
}

func (w writeStream) row(i int) store.Row {
	meta := strconv.AppendInt([]byte{w.tag}, int64(i), 10)
	return store.Row{store.U64(w.score(i)), store.Blob(meta)}
}

// userBytes is what value i costs its writer: the value and the cells.
func (w writeStream) userBytes(i int) float64 {
	return float64(len(w.value(i)) + 8 + 1 + len(strconv.Itoa(i)))
}

// runIngest is log shippers writing into a rotated log: stores pinned to
// the payload schema with default flush and compaction settings, two
// closed-loop binary connections — A sends single AppendRow requests, B
// sends AppendBatchRows of 32 — and no reads. Group commit, WAL framing,
// memtable and column staging, flush and compaction do all the work.
//
// Each store takes a round of values and is then closed and replaced by
// a fresh one (see rotor), and a phase ends on a round boundary, so
// every round runs the same flushes and the same compaction. In a single
// store growing for the whole phase, the largest merge, which sets the
// heap peak and the worst stalls, would be as large as the host's speed
// let the store grow.
func runIngest(cfg config) (*outcome, error) {
	pool := urlValues(1<<16, cfg.seed)
	streams := []writeStream{{tag: 'a', pool: pool, seed: uint64(cfg.seed)}, {tag: 'b', pool: pool, seed: uint64(cfg.seed)}}
	opts := &store.Options{Columns: schema}
	flushAt := 1 << 14 // the store's default FlushThreshold
	if cfg.small {
		flushAt = 512
		opts.FlushThreshold = flushAt
	}
	open := func(dir string) (*store.Store, error) { return store.Open(dir, opts) }
	st, setupS, err := setupTimes(101, cfg.dir, open, (*store.Store).Close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// 15½ flushes a round: the ninth passes MaxGenerations (default 8)
	// and the compactor merges all nine generations into one, with six
	// and a half flushes of writing left to finish it in; the last half
	// flush is flushed at rotation.
	r := &rotor{cfg: cfg, open: open, streams: streams, size: flushAt * 31 / 2, next: make([]int, len(streams))}
	if err := r.start(st); err != nil {
		return nil, err
	}
	out, err := ingestPhases(cfg, r, setupS)
	if ferr := r.finish(); err == nil && ferr != nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	var n int
	var bits float64
	for _, rd := range r.rounds {
		k, err := checkReopened(rd, streams, out)
		if err != nil {
			return nil, err
		}
		b, err := dirBits(rd.dir)
		if err != nil {
			return nil, err
		}
		n, bits = n+k, bits+b
	}
	out.e2e["disk_bits_per_value"] = ratio(bits, float64(n))
	out.info = map[string]any{"values_written": n, "conns": 2, "loop": "closed",
		"conn_a": "AppendRow, 1 value", "conn_b": "AppendBatchRows, 32 values",
		"rounds": len(r.rounds), "round_values": r.size,
		"flush_threshold": flushAt, "max_generations": "default 8", "schema": "score:u64,meta:bytes"}
	return out, nil
}

// rotor owns the stores of an ingest run: the one being written and the
// closed ones, each with the range of every stream it holds.
type rotor struct {
	cfg     config
	open    func(dir string) (*store.Store, error)
	streams []writeStream
	size    int   // values a round takes
	next    []int // each stream's next value
	cur     atomic.Pointer[ingestRound]
	rounds  []roundRecord // closed, oldest first
}

// ingestRound is the store being written, behind its own server.
type ingestRound struct {
	dir     string
	stk     *stack
	clients []*server.Client // one per stream
	from    []int            // each stream's first value in this store
	stored  int              // values acknowledged into it
	done    bool             // closed and recorded
}

// roundRecord is a closed store: stream c's values from[c] up to to[c]
// were acknowledged into it, in order.
type roundRecord struct {
	dir      string
	from, to []int
}

// start serves st as the next round's store and dials its connections.
func (r *rotor) start(st *store.Store) error {
	stk, err := serve(server.ForStore(st), r.cfg, false, st.Close)
	if err != nil {
		st.Close()
		return err
	}
	rd := &ingestRound{dir: st.Dir(), stk: stk, from: slices.Clone(r.next)}
	for range r.streams {
		c, err := server.Dial(stk.addr)
		if err != nil {
			for _, c := range rd.clients {
				c.Close()
			}
			stk.shutdown()
			return err
		}
		rd.clients = append(rd.clients, c)
	}
	if prev := r.cur.Load(); prev != nil && stk.wb != nil {
		// A traced phase stays traced across its rotations.
		stk.wb.tr.Store(prev.stk.wb.tr.Load())
	}
	r.cur.Store(rd)
	return nil
}

// finish flushes the store being written, closes it behind its server
// and records what it holds.
func (r *rotor) finish() error {
	rd := r.cur.Load()
	if rd.done {
		return nil
	}
	rd.done = true
	err := rd.clients[0].Flush()
	if err != nil {
		err = fmt.Errorf("final flush: %w", err)
	}
	for _, c := range rd.clients {
		c.Close()
	}
	if serr := rd.stk.shutdown(); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	r.rounds = append(r.rounds, roundRecord{dir: rd.dir, from: rd.from, to: slices.Clone(r.next)})
	return err
}

// rotate closes the full store and opens the next one.
func (r *rotor) rotate() error {
	if err := r.finish(); err != nil {
		return err
	}
	st, err := r.open(filepath.Join(r.cfg.dir, "round-"+itoa(len(r.rounds))))
	if err != nil {
		return fmt.Errorf("open round store: %w", err)
	}
	return r.start(st)
}

// phase writes whole rounds, rotating to a fresh store when one is full,
// and stops at the round boundary nearest d (after one round at least):
// each phase holds whole rounds' flushes and compactions, whatever the
// host's speed. Only the writing is timed, not the rotation.
func (r *rotor) phase(d time.Duration, traced bool) (*phaseResult, error) {
	ph := &phaseResult{}
	for _, w := range r.streams {
		ph.lat = append(ph.lat, &hist{})
		ph.logs = append(ph.logs, &clientLog{name: "conn-" + string(w.tag)})
	}
	for rounds := 1; ; rounds++ {
		if r.cur.Load().stored == r.size {
			if err := r.rotate(); err != nil {
				return nil, err
			}
		}
		rd := r.cur.Load()
		t0 := time.Now()
		rd.stored += r.write(ph, rd.clients, r.size-rd.stored, traced)
		ph.took += time.Since(t0)
		if ph.failed > 0 || ph.took+ph.took/time.Duration(2*rounds) >= d {
			return ph, nil
		}
	}
}

// write drives the two ingest connections until room more values are
// acknowledged (or a request fails), continuing each stream at r.next,
// and adds what it measured to ph. It returns the values acknowledged.
// Latencies are weighted by the values a request carried: the figures
// are what an acknowledged value waited, which does not jump between
// the two connections' modes as their request counts shift.
func (r *rotor) write(ph *phaseResult, clients []*server.Client, room int, traced bool) int {
	var reserved atomic.Int64
	tallies := make([]tally, len(clients))
	bytes := make([]float64, len(clients))
	acked := make([]int, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, w, log, lat, t := clients[c], r.streams[c], ph.logs[c], ph.lat[c], &tallies[c]
			batch := 1
			if c == 1 {
				batch = 32
			}
			vals := make([]string, batch)
			rows := make([]store.Row, batch)
			// B stops when fewer than 32 values of room are left; A then
			// fills the round to its last value.
			for reserve(&reserved, batch, room) {
				i := r.next[c]
				for j := range vals {
					vals[j], rows[j] = w.value(i+j), w.row(i+j)
				}
				t0 := time.Now()
				s0 := nowNS()
				var err error
				if batch == 1 {
					err = cl.AppendRow(vals[0], rows[0])
				} else {
					err = cl.AppendBatchRows(vals, rows)
				}
				took := time.Since(t0)
				if traced {
					log.spans = append(log.spans, span{key: key{op: opAppend}, start: s0, end: nowNS(), parent: -1})
				}
				t.attempted++
				if err != nil {
					// Unacknowledged: the values may or may not be stored, so
					// the stream cannot continue past them. Stop this writer.
					t.fail("append on connection %c: %v", w.tag, err)
					return
				}
				lat.add(took, batch)
				for j := 0; j < batch; j++ {
					bytes[c] += w.userBytes(i + j)
				}
				r.next[c] = i + batch
				acked[c] += batch
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for c := range clients {
		ph.add(tallies[c])
		ph.bytes += bytes[c]
		n += acked[c]
	}
	return n
}

// reserve takes n of the room left under used, if there is that much.
func reserve(used *atomic.Int64, n, room int) bool {
	for {
		u := used.Load()
		if u+int64(n) > int64(room) {
			return false
		}
		if used.CompareAndSwap(u, u+int64(n)) {
			return true
		}
	}
}

// ingestPhases measures the rotor's phases.
func ingestPhases(cfg config, r *rotor, setupS float64) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{"setup_s": setupS}, layers: map[string]float64{}}
	pingRTT(r.cur.Load().clients[0], out.layers)
	live := func() (*server.Client, []*wrapBackend) {
		rd := r.cur.Load()
		return rd.clients[0], []*wrapBackend{rd.stk.wb}
	}
	err := measure(cfg, out, r.phase, traceSpec{live: live,
		idle: []string{"server.read_self_us", "server.http.", "server.repl.", "client.append", "client.sched"}})
	return out, err
}

// checkReopened reopens a closed round's store and checks that every
// acknowledged value of every stream is there, in stream order, with no
// gap, no duplicate and its payload row intact. It returns the stored
// value count.
func checkReopened(rd roundRecord, streams []writeStream, out *outcome) (int, error) {
	st, err := store.Open(rd.dir, nil)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	sn := st.Snapshot()
	got := make(map[byte]int, len(streams))
	byTag := make(map[byte]writeStream, len(streams))
	for c, w := range streams {
		byTag[w.tag] = w
		got[w.tag] = rd.from[c]
	}
	sn.Iterate(0, sn.Len(), func(pos int, v string) bool {
		row := sn.Row(pos)
		if len(row) != len(schema) {
			out.fail("position %d: row %v does not match the schema", pos, row)
			return true
		}
		meta := row[1].Blob()
		if len(meta) < 2 {
			out.fail("position %d: no stream tag in row %v", pos, row)
			return true
		}
		w, ok := byTag[meta[0]]
		i, err := strconv.Atoi(string(meta[1:]))
		if !ok || err != nil {
			out.fail("position %d: unknown row %v", pos, row)
			return true
		}
		if want := got[w.tag]; i != want {
			out.fail("stream %c: position %d holds value %d, want %d (gap or reorder)", w.tag, pos, i, want)
		}
		got[w.tag] = i + 1
		if v != w.value(i) || row[0].U64() != w.score(i) {
			out.fail("stream %c value %d: stored (%q, %d), want (%q, %d)", w.tag, i, v, row[0].U64(), w.value(i), w.score(i))
		}
		return true
	})
	for c, w := range streams {
		if got[w.tag] < rd.to[c] {
			out.fail("stream %c: values up to %d acknowledged into %s, %d survived reopen", w.tag, rd.to[c], rd.dir, got[w.tag])
		}
	}
	return sn.Len(), nil
}
