package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/server"
	"repro/store"
)

// runPointRead is the headline user read path: a plain store of URL log
// values compacted to one generation, read by two closed-loop
// binary-protocol callers. Access positions are uniform over 128x the
// result cache, so Access stays uncached while the Zipf-drawn counts hit
// the cache; nothing writes, so WAL, group commit, flush, compaction,
// router and replication do no work.
func runPointRead(cfg config) (*outcome, error) {
	n := 1 << 19
	if cfg.small {
		n = 1 << 12
	}
	vals := urlValues(n, cfg.seed)
	or := newFlatOracle(vals)

	open := func(dir string) (*store.Store, error) {
		st, err := store.Open(dir, &store.Options{DisableAutoFlush: true})
		if err != nil {
			return nil, err
		}
		if err := preload(server.ForStore(st), vals, nil); err != nil {
			st.Close()
			return nil, err
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return nil, err
		}
		if err := st.Compact(); err != nil {
			st.Close()
			return nil, err
		}
		return st, nil
	}
	st, setupS, err := setupTimes(3, cfg.dir, open, (*store.Store).Close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if g := len(st.Generations()); g != 1 {
		st.Close()
		return nil, fmt.Errorf("setup left %d generations, want 1", g)
	}
	dir := st.Dir()
	stk, err := serve(server.ForStore(st), cfg, false, st.Close)
	if err != nil {
		st.Close()
		return nil, err
	}
	out, err := pointReadPhases(cfg, stk, or, setupS)
	if serr := stk.shutdown(); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	bits, err := dirBits(dir)
	if err != nil {
		return nil, err
	}
	out.e2e["disk_bits_per_value"] = bits / float64(n)
	out.info = map[string]any{"values": n, "distinct": len(or.distinct), "prefixes": len(or.prefixes),
		"conns": 2, "loop": "closed", "flush": "bulk load with auto flush off, then one Flush and Compact",
		"mix": "access 40% (uniform pos), rank 20%, select 15%, count_prefix 15%, select_prefix 10% (zipf 1.1 values and prefixes)"}
	return out, nil
}

// flatOracle answers every read from the generated values directly.
type flatOracle struct {
	vals     []string
	pos      map[string][]int32 // positions per value
	prefPos  map[string][]int32 // positions per prefix (host, host/first)
	distinct []string           // by descending frequency: Zipf rank order
	prefixes []string
}

func newFlatOracle(vals []string) *flatOracle {
	o := &flatOracle{vals: vals, pos: map[string][]int32{}, prefPos: map[string][]int32{}}
	for _, v := range vals {
		host, first := prefixesOf(v)
		o.prefPos[host] = nil
		if first != "" {
			o.prefPos[first] = nil
		}
	}
	// Prefixes are string prefixes: "h/a1" also matches "h/a12/b3".
	for i, v := range vals {
		o.pos[v] = append(o.pos[v], int32(i))
		host, first := prefixesOf(v)
		o.prefPos[host] = append(o.prefPos[host], int32(i))
		for j := len(host) + 2; j <= len(first); j++ {
			if ps, ok := o.prefPos[v[:j]]; ok {
				o.prefPos[v[:j]] = append(ps, int32(i))
			}
		}
	}
	byFreq := func(m map[string][]int32) []string {
		out := sortedKeys(m)
		sort.SliceStable(out, func(a, b int) bool { return len(m[out[a]]) > len(m[out[b]]) })
		return out
	}
	o.distinct = byFreq(o.pos)
	o.prefixes = byFreq(o.prefPos)
	return o
}

// rank counts positions below pos in a sorted position list.
func rankIn(ps []int32, pos int) int {
	return sort.Search(len(ps), func(i int) bool { return int(ps[i]) >= pos })
}

// answer is one read: the request and what came back.
type answer struct {
	k   key
	num int
	ok  bool
	str string
}

// check compares one answer with the oracle.
func (o *flatOracle) check(a answer) bool {
	switch a.k.op {
	case opAccess:
		return a.str == o.vals[a.k.n]
	case opRank:
		return a.num == rankIn(o.pos[a.k.arg], a.k.n)
	case opSelect:
		ps := o.pos[a.k.arg]
		return a.ok == (a.k.n < len(ps)) && (!a.ok || a.num == int(ps[a.k.n]))
	case opCountPrefix:
		return a.num == len(o.prefPos[a.k.arg])
	case opSelectPrefix:
		ps := o.prefPos[a.k.arg]
		return a.ok == (a.k.n < len(ps)) && (!a.ok || a.num == int(ps[a.k.n]))
	}
	return false
}

// pointReadGen draws one caller's request stream.
type pointReadGen struct {
	r           *rand.Rand
	valZ, prefZ *rand.Zipf
	o           *flatOracle
}

func newPointReadGen(o *flatOracle, seed int64) *pointReadGen {
	r := rand.New(rand.NewSource(seed))
	return &pointReadGen{r: r, o: o,
		valZ:  rand.NewZipf(r, 1.1, 1, uint64(len(o.distinct)-1)),
		prefZ: rand.NewZipf(r, 1.1, 1, uint64(len(o.prefixes)-1))}
}

func (g *pointReadGen) next() key {
	n := len(g.o.vals)
	x := g.r.Intn(100)
	switch {
	case x < 40:
		return key{op: opAccess, n: g.r.Intn(n)}
	case x < 60:
		return key{op: opRank, arg: g.o.distinct[g.valZ.Uint64()], n: g.r.Intn(n + 1)}
	case x < 75:
		v := g.o.distinct[g.valZ.Uint64()]
		return key{op: opSelect, arg: v, n: g.r.Intn(len(g.o.pos[v]))}
	case x < 90:
		return key{op: opCountPrefix, arg: g.o.prefixes[g.prefZ.Uint64()]}
	default:
		p := g.o.prefixes[g.prefZ.Uint64()]
		return key{op: opSelectPrefix, arg: p, n: g.r.Intn(len(g.o.prefPos[p]))}
	}
}

// doRead issues one read over the binary protocol.
func doRead(c *server.Client, k key) (answer, error) {
	a := answer{k: k}
	var err error
	switch k.op {
	case opAccess:
		a.str, err = c.Access(k.n)
	case opRank:
		a.num, err = c.Rank(k.arg, k.n)
	case opSelect:
		a.num, a.ok, err = c.Select(k.arg, k.n)
	case opCountPrefix:
		a.num, err = c.CountPrefix(k.arg)
	case opSelectPrefix:
		a.num, a.ok, err = c.SelectPrefix(k.arg, k.n)
	}
	return a, err
}

// runReadPhase drives the closed-loop callers for d. Every answer is
// checked against the oracle as it arrives and then dropped, so the
// benchmark's own memory does not grow with the program's speed.
func runReadPhase(clients []*server.Client, gens []*pointReadGen, or *flatOracle, d time.Duration, traced bool) *phaseResult {
	ph := &phaseResult{lat: make([]*hist, len(clients))}
	tallies := make([]tally, len(clients))
	logs := make([]*clientLog, len(clients))
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := range clients {
		ph.lat[i] = &hist{}
		logs[i] = &clientLog{name: "conn-" + string(rune('a'+i))}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, g, log, lat, t := clients[i], gens[i], logs[i], ph.lat[i], &tallies[i]
			for {
				k := g.next()
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				s0 := nowNS()
				a, err := doRead(c, k)
				took := time.Since(t0)
				if traced {
					log.spans = append(log.spans, span{key: k, start: s0, end: nowNS(), parent: -1})
				}
				t.attempted++
				switch {
				case err != nil:
					t.fail("%s(%q, %d): %v", opNames[k.op], k.arg, k.n, err)
				case !or.check(a):
					t.fail("%s(%q, %d) answered (%d, %v, %q)", opNames[k.op], k.arg, k.n, a.num, a.ok, a.str)
				default:
					lat.add(took, 1)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range tallies {
		ph.add(tallies[i])
	}
	if traced {
		ph.logs = logs
	}
	return ph
}

// pointReadPhases dials the two callers and measures.
func pointReadPhases(cfg config, stk *stack, or *flatOracle, setupS float64) (*outcome, error) {
	clients := make([]*server.Client, 2)
	gens := make([]*pointReadGen, 2)
	for i := range clients {
		c, err := server.Dial(stk.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
		gens[i] = newPointReadGen(or, cfg.seed*7919+int64(i))
	}
	out := &outcome{e2e: map[string]float64{"setup_s": setupS}, layers: map[string]float64{}}
	pingRTT(clients[0], out.layers)
	phase := func(d time.Duration, traced bool) (*phaseResult, error) {
		return runReadPhase(clients, gens, or, d, traced), nil
	}
	err := measure(cfg, out, phase, traceSpec{live: fixed(clients[0], stk.wb),
		selfName: "server.read_self_us",
		idle:     []string{"server.http.", "server.repl.", "client.append", "client.sched"}})
	return out, err
}
