package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/server"
	"repro/store"
)

// Span operations. A client span and the store span it caused carry the
// same op and argument; that pair plus interval containment is how a
// server-side span finds its parent (see attribute).
const (
	opAccess uint8 = iota + 1
	opRank
	opSelect
	opCountPrefix
	opSelectPrefix
	opScanPrefix
	opCountWhere
	opAppend
)

var opNames = [...]string{"", "access", "rank", "select", "count_prefix", "select_prefix",
	"scan_prefix", "count_where", "append"}

// key is a span's op and argument.
type key struct {
	op  uint8
	arg string
	n   int
}

// span is one timed call. Times are nowNS readings.
type span struct {
	key        key
	start, end int64
	snap       int64 // server spans: which pinned-snapshot wrapper made the call
	seq        int64 // append spans: sequence number of the first value
	vals       int32 // append spans: values carried
	parent     int32 // filled by attribute: index of the parent client span, -1 none
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a traced phase in memory; they are written
// out when the run ends.
type tracer struct {
	mu    sync.Mutex
	store []span // wrapped primary Backend/Snap calls
	apply []span // wrapped follower Backend applies
}

// epoch is the zero of every span time.
var epoch = time.Now()

// nowNS is the span clock: monotonic nanoseconds since epoch.
func nowNS() int64 { return int64(time.Since(epoch)) }

func (t *tracer) add(follower bool, s span) {
	t.mu.Lock()
	if follower {
		t.apply = append(t.apply, s)
	} else {
		t.store = append(t.store, s)
	}
	t.mu.Unlock()
}

// clientLog is one connection's client spans, recorded by the single
// goroutine that drives the connection, so it needs no lock.
type clientLog struct {
	name  string // "conn-a", "http", ...
	spans []span
}

// wrapBackend is the benchmark-owned Backend: it times the calls the
// server makes into the store without changing what they do (the server
// never type-asserts its backend, so the wrapper is transparent). With
// no tracer installed it only counts sequence numbers, so the same
// stack serves the untraced and the traced phase of a traced run.
type wrapBackend struct {
	server.Backend
	follower bool
	tr       atomic.Pointer[tracer]
	seq      atomic.Int64 // sequence number one past the last append
	snaps    atomic.Int64 // pinned-snapshot wrapper ids
	fault    fault
	faultHit atomic.Int64
}

func wrap(b server.Backend, follower bool, f fault) *wrapBackend {
	w := &wrapBackend{Backend: b, follower: follower, fault: f}
	w.seq.Store(int64(b.Snap().Len()))
	return w
}

// AppendBatchRows is the single write entry point of the server (group
// commit and follower apply both land here).
func (b *wrapBackend) AppendBatchRows(vs []string, rows []store.Row) error {
	if b.fault == faultDropAck && b.faultHit.Add(1) == 20 {
		// Planted defect: acknowledge a commit that never reached the
		// store.
		b.seq.Add(int64(len(vs)))
		return nil
	}
	tr := b.tr.Load()
	var t0 int64
	if tr != nil {
		t0 = nowNS()
	}
	err := b.Backend.AppendBatchRows(vs, rows)
	start := b.seq.Add(int64(len(vs))) - int64(len(vs))
	if tr != nil {
		tr.add(b.follower, span{key: key{op: opAppend}, start: t0, end: nowNS(),
			seq: start, vals: int32(len(vs)), parent: -1})
	}
	return err
}

// Snap pins a snapshot and wraps it so its read calls are timed.
func (b *wrapBackend) Snap() server.Snap {
	sn := b.Backend.Snap()
	if b.tr.Load() == nil && b.fault != faultWrongAnswer {
		return sn
	}
	return &wrapSnap{Snap: sn, b: b, id: b.snaps.Add(1)}
}

// wrapSnap times the read calls of one pinned snapshot.
type wrapSnap struct {
	server.Snap
	b  *wrapBackend
	id int64
}

func (w *wrapSnap) timed(k key, fn func()) {
	tr := w.b.tr.Load()
	if tr == nil {
		fn()
		return
	}
	t0 := nowNS()
	fn()
	tr.add(w.b.follower, span{key: k, start: t0, end: nowNS(), snap: w.id, parent: -1})
}

func (w *wrapSnap) Access(pos int) (v string) {
	w.timed(key{op: opAccess, n: pos}, func() { v = w.Snap.Access(pos) })
	if w.b.fault == faultWrongAnswer && w.b.faultHit.Add(1) == 50 {
		v += "#planted"
	}
	return v
}

func (w *wrapSnap) Rank(s string, pos int) (n int) {
	w.timed(key{op: opRank, arg: s, n: pos}, func() { n = w.Snap.Rank(s, pos) })
	return n
}

func (w *wrapSnap) Select(s string, idx int) (pos int, ok bool) {
	w.timed(key{op: opSelect, arg: s, n: idx}, func() { pos, ok = w.Snap.Select(s, idx) })
	return pos, ok
}

func (w *wrapSnap) CountPrefix(p string) (n int) {
	w.timed(key{op: opCountPrefix, arg: p}, func() { n = w.Snap.CountPrefix(p) })
	return n
}

func (w *wrapSnap) SelectPrefix(p string, idx int) (pos int, ok bool) {
	w.timed(key{op: opSelectPrefix, arg: p, n: idx}, func() { pos, ok = w.Snap.SelectPrefix(p, idx) })
	return pos, ok
}

func (w *wrapSnap) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	w.timed(key{op: opScanPrefix, arg: p, n: from}, func() { w.Snap.IteratePrefix(p, from, fn) })
}

func (w *wrapSnap) CountWhere(prefix string, preds ...store.Pred) (n int, err error) {
	k := key{op: opCountWhere, arg: prefix}
	if len(preds) > 0 {
		k.n = int(preds[0].Val) // the threshold, as the client span records it
	}
	w.timed(k, func() { n, err = w.Snap.CountWhere(prefix, preds...) })
	return n, err
}

// attribution is the result of matching store spans to client spans.
type attribution struct {
	// child[c][i] is the store time (ns) spent under client span i of
	// connection c: the top-level store spans it caused.
	child [][]int64
	// top are the store spans that are not nested in another store span
	// of the same pinned snapshot (an Access issued from inside a prefix
	// scan is part of the scan's time).
	top []int
}

// attribute gives every top-level store span a parent: the client span
// with the same op and argument whose interval contains it. Append
// spans carry no argument (a group commit coalesces several requests);
// a commit is attributed to every append request whose interval
// contains it, since it blocked each of them.
func attribute(clients []*clientLog, store []span) attribution {
	a := attribution{child: make([][]int64, len(clients))}
	for c, cl := range clients {
		a.child[c] = make([]int64, len(cl.spans))
	}
	a.top = topLevel(store)
	for _, si := range a.top {
		s := &store[si]
		for c, cl := range clients {
			// Spans of one connection are sequential: the candidate is the
			// last one starting at or before s.
			i := sort.Search(len(cl.spans), func(i int) bool { return cl.spans[i].start > s.start }) - 1
			if i < 0 {
				continue
			}
			p := cl.spans[i]
			if p.end < s.end || p.key.op != s.key.op {
				continue
			}
			if s.key.op != opAppend && (p.key.arg != s.key.arg || p.key.n != s.key.n) {
				continue
			}
			a.child[c][i] += s.dur()
			if s.parent < 0 {
				s.parent = int32(c<<24 | i)
			}
			if s.key.op != opAppend {
				break
			}
		}
	}
	return a
}

// topLevel returns the indexes of store spans not contained in another
// span of the same pinned snapshot.
func topLevel(spans []span) []int {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	// Group by snapshot, outer spans (earlier start, later end) first.
	sort.Slice(idx, func(x, y int) bool {
		a, b := spans[idx[x]], spans[idx[y]]
		if a.snap != b.snap {
			return a.snap < b.snap
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end
	})
	var out []int
	for j, i := range idx {
		if j > 0 {
			o := spans[out[len(out)-1]]
			if s := spans[i]; s.snap != 0 && o.snap == s.snap && o.start <= s.start && s.end <= o.end {
				continue
			}
		}
		out = append(out, i)
	}
	return out
}

// spanRecord is one line of the trace file.
type spanRecord struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	N      int    `json:"n"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// writeTrace writes every span of the traced phase as gzipped JSON
// lines. Client spans come first; a store span's parent is the id of
// the client span it was attributed to (-1 when none contains it).
func writeTrace(path string, clients []*clientLog, tr *tracer, replay []*clientLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	id := 0
	base := make([]int, len(clients))
	put := func(name string, s span, parent int) error {
		err := enc.Encode(spanRecord{ID: id, Name: name + "." + opNames[s.key.op], Arg: s.key.arg,
			N: s.key.n, Start: s.start, End: s.end, Parent: parent})
		id++
		return err
	}
	for c, cl := range clients {
		base[c] = id
		for _, s := range cl.spans {
			if err := put("client."+cl.name, s, -1); err != nil {
				return err
			}
		}
	}
	for _, s := range tr.store {
		parent := -1
		if s.parent >= 0 {
			parent = base[s.parent>>24] + int(s.parent&(1<<24-1))
		}
		if err := put("store", s, parent); err != nil {
			return err
		}
	}
	for _, s := range tr.apply {
		if err := put("follower.store", s, -1); err != nil {
			return err
		}
	}
	for _, rl := range replay {
		for _, s := range rl.spans {
			if err := put("replay."+rl.name, s, -1); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
