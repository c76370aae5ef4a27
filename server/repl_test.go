package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/server"
	"repro/store"
)

// replNode is one in-process server plus a handle on its backing store
// so tests can fingerprint content without going through the protocol.
type replNode struct {
	srv  *server.Server
	addr string
	fp   func() uint64
	len  func() int
}

// startReplNode opens a store (plain or sharded) in a temp dir and
// serves it on loopback with fast replication heartbeats.
func startReplNode(t *testing.T, shards int, sopts *store.Options, opts *server.Options) *replNode {
	t.Helper()
	dir := t.TempDir()
	if opts == nil {
		opts = &server.Options{}
	}
	if opts.ReplHeartbeat == 0 {
		opts.ReplHeartbeat = 50 * time.Millisecond
	}
	var b server.Backend
	var closeStore func() error
	var fp func() uint64
	var length func() int
	if shards > 0 {
		ss, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: shards, Store: derefOpts(sopts)})
		if err != nil {
			t.Fatal(err)
		}
		b, closeStore = server.ForSharded(ss), ss.Close
		fp = func() uint64 { return ss.Snapshot().ContentFingerprint() }
		length = ss.Len
	} else {
		st, err := store.Open(dir, sopts)
		if err != nil {
			t.Fatal(err)
		}
		b, closeStore = server.ForStore(st), st.Close
		fp = func() uint64 { return st.Snapshot().ContentFingerprint() }
		length = st.Len
	}
	srv := server.New(b, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		shutdownServer(t, srv)
		closeStore()
	})
	return &replNode{srv: srv, addr: l.Addr().String(), fp: fp, len: length}
}

func shutdownServer(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationLiveStream subscribes an empty follower to an empty
// primary and drives appends through both write paths, checking
// convergence, read-your-writes via WaitFor, and the stats surface.
func TestReplicationLiveStream(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			prim := startReplNode(t, shards, nil, nil)
			fol := startReplNode(t, shards, nil, nil)
			if err := fol.srv.Follow(prim.addr, "f-live"); err != nil {
				t.Fatal(err)
			}

			pc := dial(t, prim.addr)
			var seq uint64
			var err error
			if seq, err = pc.AppendSeq("solo/value"); err != nil {
				t.Fatal(err)
			}
			batch := make([]string, 200)
			for i := range batch {
				batch[i] = fmt.Sprintf("live/%03d", i%17)
			}
			if seq, err = pc.AppendBatchSeq(batch); err != nil {
				t.Fatal(err)
			}
			if want := uint64(1 + len(batch)); seq != want {
				t.Fatalf("AppendBatchSeq ack = %d, want %d", seq, want)
			}
			if pc.LastAcked() != seq {
				t.Fatalf("LastAcked = %d, want %d", pc.LastAcked(), seq)
			}

			// Read-your-writes on the follower: wait for the session token,
			// then every read must see the writes.
			fc := dial(t, fol.addr)
			wm, ok, err := fc.WaitFor(seq, 10*time.Second)
			if err != nil || !ok {
				t.Fatalf("WaitFor(%d) = %d, %v, %v", seq, wm, ok, err)
			}
			if got, err := fc.Access(0); err != nil || got != "solo/value" {
				t.Fatalf("follower Access(0) = %q, %v", got, err)
			}
			if n, err := fc.Count("live/003"); err != nil || n == 0 {
				t.Fatalf("follower Count = %d, %v", n, err)
			}
			if got, want := fol.fp(), prim.fp(); got != want {
				t.Fatalf("content fingerprints diverge: follower %x, primary %x", got, want)
			}

			// The stats surface reflects both roles.
			fst, err := fc.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if fst.Following != prim.addr {
				t.Fatalf("follower Stats.Following = %q, want %q", fst.Following, prim.addr)
			}
			if fst.Watermark != seq {
				t.Fatalf("follower Stats.Watermark = %d, want %d", fst.Watermark, seq)
			}
			waitUntil(t, 5*time.Second, "primary to see one follower", func() bool {
				pst, err := pc.Stats()
				return err == nil && pst.Followers == 1
			})
		})
	}
}

// TestReplicationBootstrapSnapshot starts an empty follower after the
// primary already holds data (partly frozen), so the follower is
// bootstrapped by record-frame catch-up out of a primary snapshot from
// sequence zero.
func TestReplicationBootstrapSnapshot(t *testing.T) {
	prim := startReplNode(t, 0, nil, nil)
	pc := dial(t, prim.addr)

	vals := make([]string, 600)
	for i := range vals {
		vals[i] = fmt.Sprintf("boot/%04d", i*i%311)
	}
	if _, err := pc.AppendBatchSeq(vals[:400]); err != nil {
		t.Fatal(err)
	}
	if err := pc.Flush(); err != nil {
		t.Fatal(err)
	}
	seq, err := pc.AppendBatchSeq(vals[400:])
	if err != nil {
		t.Fatal(err)
	}

	fol := startReplNode(t, 0, nil, nil)
	if err := fol.srv.Follow(prim.addr, "f-boot"); err != nil {
		t.Fatal(err)
	}
	fc := dial(t, fol.addr)
	if _, ok, err := fc.WaitFor(seq, 15*time.Second); err != nil || !ok {
		t.Fatalf("bootstrap WaitFor(%d): ok=%v err=%v", seq, ok, err)
	}
	if fol.len() != len(vals) {
		t.Fatalf("follower len = %d, want %d", fol.len(), len(vals))
	}
	if got, want := fol.fp(), prim.fp(); got != want {
		t.Fatalf("fingerprints diverge after bootstrap: %x vs %x", got, want)
	}

	// The stream stays live after bootstrap: new appends keep flowing.
	seq, err = pc.AppendSeq("boot/after")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := fc.WaitFor(seq, 10*time.Second); err != nil || !ok {
		t.Fatalf("post-bootstrap WaitFor: ok=%v err=%v", ok, err)
	}
	if got, err := fc.Access(len(vals)); err != nil || got != "boot/after" {
		t.Fatalf("follower Access(tail) = %q, %v", got, err)
	}
}

// TestReplicationDifferential hammers the primary with concurrent
// batched appends, flushes and compactions while a follower tails the
// stream, then quiesces and checks the follower is indistinguishable
// from the primary: equal content fingerprints plus a few hundred
// random probes across the whole op surface against a flat oracle.
func TestReplicationDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replication test is not short")
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sopts := &store.Options{FlushThreshold: 512, DisableAutoFlush: true, Columns: crashSchema()}
			prim := startReplNode(t, shards, sopts, nil)
			fol := startReplNode(t, shards, sopts, nil)
			if err := fol.srv.Follow(prim.addr, "f-diff"); err != nil {
				t.Fatal(err)
			}

			const (
				writers       = 3
				batchesPerW   = 40
				valuesPerCall = 25
			)
			var wg sync.WaitGroup
			var mu sync.Mutex
			var maxSeq uint64
			errc := make(chan error, writers+1)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := dial(t, prim.addr)
					rng := rand.New(rand.NewSource(int64(1000 + w)))
					for i := 0; i < batchesPerW; i++ {
						batch := make([]string, valuesPerCall)
						rows := make([]store.Row, valuesPerCall)
						for j := range batch {
							batch[j] = fmt.Sprintf("d/%d/%02d", w, rng.Intn(40))
							rows[j] = crashRowFor(w, i*valuesPerCall+j)
						}
						seq, err := c.AppendBatchRowsSeq(batch, rows)
						if err != nil {
							errc <- fmt.Errorf("writer %d: %w", w, err)
							return
						}
						mu.Lock()
						if seq > maxSeq {
							maxSeq = seq
						}
						mu.Unlock()
					}
				}(w)
			}
			// Maintenance churn: flush and compact race the writers so the
			// stream crosses generation boundaries and snapshot reshapes.
			stopMaint := make(chan struct{})
			maintDone := make(chan struct{})
			go func() {
				defer close(maintDone)
				c := dial(t, prim.addr)
				for i := 0; ; i++ {
					select {
					case <-stopMaint:
						return
					case <-time.After(20 * time.Millisecond):
					}
					var err error
					if i%3 == 2 {
						err = c.Compact()
					} else {
						err = c.Flush()
					}
					if err != nil {
						errc <- fmt.Errorf("maintenance: %w", err)
						return
					}
				}
			}()

			wg.Wait()
			close(stopMaint)
			<-maintDone
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}

			total := writers * batchesPerW * valuesPerCall
			if want := uint64(total); maxSeq != want {
				t.Fatalf("max acked seq = %d, want %d", maxSeq, want)
			}

			// Quiesce: the follower's watermark must cover every ack.
			fc := dial(t, fol.addr)
			if _, ok, err := fc.WaitFor(maxSeq, 30*time.Second); err != nil || !ok {
				t.Fatalf("quiesce WaitFor(%d): ok=%v err=%v", maxSeq, ok, err)
			}
			if fol.len() != total {
				t.Fatalf("follower len = %d, want %d", fol.len(), total)
			}
			if got, want := fol.fp(), prim.fp(); got != want {
				t.Fatalf("fingerprints diverge: follower %x, primary %x", got, want)
			}

			// Oracle probes: the flat sequence from the primary answers
			// every op; the follower must agree on ~200 random probes.
			pc := dial(t, prim.addr)
			oracle, err := pc.Slice(0, total)
			if err != nil {
				t.Fatal(err)
			}
			probeOpSurface(t, fc, oracle, 200)

			// Payload rows replicated with the values: the follower
			// serves the primary's row at every sampled position (the
			// fingerprint equality above already covers all of them).
			for pos := 0; pos < total; pos += 97 {
				fr, err := fc.Row(pos)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := pc.Row(pos)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRow(fr, pr) {
					t.Fatalf("Row(%d): follower %v, primary %v", pos, fr, pr)
				}
			}
		})
	}
}

// probeOpSurface fires n random probes across the full query surface
// of c and checks every answer against the flat oracle.
func probeOpSurface(t *testing.T, c *server.Client, oracle []string, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	distinct := map[string]bool{}
	for _, v := range oracle {
		distinct[v] = true
	}
	values := make([]string, 0, len(distinct))
	for v := range distinct {
		values = append(values, v)
	}
	sort.Strings(values)
	pick := func() string { return values[rng.Intn(len(values))] }
	prefixOf := func(v string) string {
		if len(v) == 0 {
			return ""
		}
		return v[:1+rng.Intn(len(v))]
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0: // Access
			pos := rng.Intn(len(oracle))
			got, err := c.Access(pos)
			if err != nil || got != oracle[pos] {
				t.Fatalf("probe %d: Access(%d) = %q, %v; want %q", i, pos, got, err, oracle[pos])
			}
		case 1: // Rank
			v, pos := pick(), rng.Intn(len(oracle)+1)
			want := 0
			for _, o := range oracle[:pos] {
				if o == v {
					want++
				}
			}
			got, err := c.Rank(v, pos)
			if err != nil || got != want {
				t.Fatalf("probe %d: Rank(%q,%d) = %d, %v; want %d", i, v, pos, got, err, want)
			}
		case 2: // Count
			v := pick()
			want := 0
			for _, o := range oracle {
				if o == v {
					want++
				}
			}
			got, err := c.Count(v)
			if err != nil || got != want {
				t.Fatalf("probe %d: Count(%q) = %d, %v; want %d", i, v, got, err, want)
			}
		case 3: // Select
			v := pick()
			total := 0
			for _, o := range oracle {
				if o == v {
					total++
				}
			}
			if total == 0 {
				continue
			}
			idx := rng.Intn(total)
			wantPos, seen := -1, 0
			for p, o := range oracle {
				if o == v {
					if seen == idx {
						wantPos = p
						break
					}
					seen++
				}
			}
			pos, ok, err := c.Select(v, idx)
			if err != nil || !ok || pos != wantPos {
				t.Fatalf("probe %d: Select(%q,%d) = %d,%v,%v; want %d", i, v, idx, pos, ok, err, wantPos)
			}
		case 4: // CountPrefix + RankPrefix
			p := prefixOf(pick())
			pos := rng.Intn(len(oracle) + 1)
			wantRank, wantCount := 0, 0
			for j, o := range oracle {
				if strings.HasPrefix(o, p) {
					wantCount++
					if j < pos {
						wantRank++
					}
				}
			}
			gotCount, err := c.CountPrefix(p)
			if err != nil || gotCount != wantCount {
				t.Fatalf("probe %d: CountPrefix(%q) = %d, %v; want %d", i, p, gotCount, err, wantCount)
			}
			gotRank, err := c.RankPrefix(p, pos)
			if err != nil || gotRank != wantRank {
				t.Fatalf("probe %d: RankPrefix(%q,%d) = %d, %v; want %d", i, p, pos, gotRank, err, wantRank)
			}
		case 5: // SelectPrefix
			p := prefixOf(pick())
			var positions []int
			for j, o := range oracle {
				if strings.HasPrefix(o, p) {
					positions = append(positions, j)
				}
			}
			if len(positions) == 0 {
				continue
			}
			idx := rng.Intn(len(positions))
			pos, ok, err := c.SelectPrefix(p, idx)
			if err != nil || !ok || pos != positions[idx] {
				t.Fatalf("probe %d: SelectPrefix(%q,%d) = %d,%v,%v; want %d", i, p, idx, pos, ok, err, positions[idx])
			}
		}
	}
}

// TestFollowerRefusesWritesThenPromote checks the follower's read-only
// contract and its promotion into a writable primary.
func TestFollowerRefusesWritesThenPromote(t *testing.T) {
	prim := startReplNode(t, 0, nil, nil)
	fol := startReplNode(t, 0, nil, nil)
	if err := fol.srv.Follow(prim.addr, "f-promo"); err != nil {
		t.Fatal(err)
	}

	pc := dial(t, prim.addr)
	seq, err := pc.AppendSeq("before/promotion")
	if err != nil {
		t.Fatal(err)
	}
	fc := dial(t, fol.addr)
	if _, ok, err := fc.WaitFor(seq, 10*time.Second); err != nil || !ok {
		t.Fatalf("WaitFor: ok=%v err=%v", ok, err)
	}

	// Writes are refused while following, and the refusal names the
	// primary so clients can re-aim.
	err = fc.Append("refused")
	var se *server.ServerError
	if !asServerError(err, &se) || !strings.Contains(se.Msg, prim.addr) {
		t.Fatalf("follower append error = %v, want ServerError naming %s", err, prim.addr)
	}

	// Promote over the wire: the first call reports it was following,
	// the second that it already was a primary.
	was, err := fc.Promote()
	if err != nil || !was {
		t.Fatalf("Promote = %v, %v; want true", was, err)
	}
	if was, err = fc.Promote(); err != nil || was {
		t.Fatalf("second Promote = %v, %v; want false", was, err)
	}
	if got := fol.srv.Following(); got != "" {
		t.Fatalf("Following() after promote = %q, want empty", got)
	}

	// The promoted server accepts writes and serves its full history.
	seq2, err := fc.AppendSeq("after/promotion")
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq+1 {
		t.Fatalf("post-promotion seq = %d, want %d", seq2, seq+1)
	}
	if got, err := fc.Access(0); err != nil || got != "before/promotion" {
		t.Fatalf("Access(0) = %q, %v", got, err)
	}
	if got, err := fc.Access(1); err != nil || got != "after/promotion" {
		t.Fatalf("Access(1) = %q, %v", got, err)
	}
}

func asServerError(err error, target **server.ServerError) bool {
	se, ok := err.(*server.ServerError)
	if ok {
		*target = se
	}
	return ok
}

// TestReplicationHTTPGateway checks the gateway's replication surface:
// follower writes answer 421 with the primary's address, consistency
// tokens gate reads on the watermark, and /v1/repl reports the role.
func TestReplicationHTTPGateway(t *testing.T) {
	prim := startReplNode(t, 0, nil, nil)
	fol := startReplNode(t, 0, nil, nil)
	if err := fol.srv.Follow(prim.addr, "f-http"); err != nil {
		t.Fatal(err)
	}
	pg := httptest.NewServer(prim.srv.HTTPHandler())
	defer pg.Close()
	fg := httptest.NewServer(fol.srv.HTTPHandler())
	defer fg.Close()

	// A write through the primary gateway carries the ack seq in both
	// the X-WT-Seq header and the JSON body.
	resp, err := http.Post(pg.URL+"/v1/append", "application/json",
		strings.NewReader(`{"values": ["http/a", "http/b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary append status = %d", resp.StatusCode)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-WT-Seq"), 10, 64)
	if err != nil || seq != 2 {
		t.Fatalf("X-WT-Seq = %q (%v), want 2", resp.Header.Get("X-WT-Seq"), err)
	}

	// A write against the follower gateway is misdirected: 421 plus the
	// primary's address.
	resp, err = http.Post(fg.URL+"/v1/append", "application/json",
		strings.NewReader(`{"values": ["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower append status = %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("X-WT-Primary"); got != prim.addr {
		t.Fatalf("X-WT-Primary = %q, want %q", got, prim.addr)
	}

	// A read with the write's token waits for replication and then sees
	// the write.
	req, _ := http.NewRequest("GET", fg.URL+"/v1/access?pos=1", nil)
	req.Header.Set("X-WT-Consistency-Token", strconv.FormatUint(seq, 10))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "http/b") {
		t.Fatalf("token read: status %d, body %q", resp.StatusCode, body)
	}

	// A garbage token is a client error.
	req, _ = http.NewRequest("GET", fg.URL+"/v1/access?pos=0", nil)
	req.Header.Set("X-WT-Consistency-Token", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad token status = %d, want 400", resp.StatusCode)
	}

	// A token from the future times out with 503 + Retry-After.
	req, _ = http.NewRequest("GET", fg.URL+"/v1/access?pos=0", nil)
	req.Header.Set("X-WT-Consistency-Token", "99999999")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("future token status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("future token reply carries no Retry-After")
	}

	// /v1/repl names the role on both ends.
	for _, tc := range []struct{ url, role string }{
		{fg.URL, "follower"},
		{pg.URL, "primary"},
	} {
		resp, err := http.Get(tc.url + "/v1/repl")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if !strings.Contains(body, fmt.Sprintf("%q", tc.role)) {
			t.Fatalf("/v1/repl on %s = %q, want role %q", tc.url, body, tc.role)
		}
	}
}

// TestReplicationChain streams through a middle hop: A -> B -> C. The
// middle follower republishes every applied record to its own
// subscribers, so the tail converges too.
func TestReplicationChain(t *testing.T) {
	a := startReplNode(t, 0, nil, nil)
	b := startReplNode(t, 0, nil, nil)
	c := startReplNode(t, 0, nil, nil)
	if err := b.srv.Follow(a.addr, "chain-b"); err != nil {
		t.Fatal(err)
	}
	if err := c.srv.Follow(b.addr, "chain-c"); err != nil {
		t.Fatal(err)
	}

	ac := dial(t, a.addr)
	vals := make([]string, 150)
	for i := range vals {
		vals[i] = fmt.Sprintf("chain/%03d", i%13)
	}
	seq, err := ac.AppendBatchSeq(vals)
	if err != nil {
		t.Fatal(err)
	}
	cc := dial(t, c.addr)
	if _, ok, err := cc.WaitFor(seq, 15*time.Second); err != nil || !ok {
		t.Fatalf("tail WaitFor(%d): ok=%v err=%v", seq, ok, err)
	}
	if got, want := c.fp(), a.fp(); got != want {
		t.Fatalf("chain tail fingerprint %x, head %x", got, want)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
