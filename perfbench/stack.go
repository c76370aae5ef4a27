package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/workload"
	"repro/server"
	"repro/store"
)

// schema is the payload schema of the ingest and log-tail stores.
var schema = []store.ColumnSpec{{Name: "score", Kind: store.ColUint64}, {Name: "meta", Kind: store.ColBytes}}

// stack is one in-process server over one store, on loopback.
type stack struct {
	b       server.Backend // what the server was built over
	wb      *wrapBackend   // the benchmark wrapper, nil when unwrapped
	srv     *server.Server
	addr    string
	httpURL string
	hs      *http.Server
	wg      sync.WaitGroup
	close   func() error // closes the store
}

// serve starts a server over b (wrapping it when the run is traced or a
// fault is planted) with a binary listener and, optionally, the HTTP
// gateway.
func serve(b server.Backend, cfg config, withHTTP bool, closeStore func() error) (*stack, error) {
	st := &stack{b: b, close: closeStore}
	if cfg.trace || cfg.fault != faultNone {
		st.wb = wrap(b, false, cfg.fault)
		st.b = st.wb
	}
	st.srv = server.New(st.b, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.addr = l.Addr().String()
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		st.srv.Serve(l)
	}()
	if withHTTP {
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.shutdown()
			return nil, err
		}
		st.httpURL = "http://" + hl.Addr().String()
		st.hs = &http.Server{Handler: st.srv.HTTPHandler()}
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.hs.Serve(hl)
		}()
	}
	return st, nil
}

// shutdown drains the gateway and the server, waits for their serving
// goroutines and closes the store.
func (st *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.hs != nil {
		st.hs.Shutdown(ctx)
	}
	err := st.srv.Shutdown(ctx)
	st.wg.Wait()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	return err
}

// setupTimes runs setup n times and keeps the last result open: set-up
// time is reported as the median, so one slow file-system call does not
// move it. Earlier results are closed and their directories removed.
func setupTimes[T any](n int, dir string, setup func(dir string) (T, error), closeIt func(T) error) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		d := filepath.Join(dir, "store-"+strconv.Itoa(i))
		t0 := time.Now()
		v, err := setup(d)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			last = v
			break
		}
		if err := closeIt(v); err != nil {
			return last, 0, err
		}
		os.RemoveAll(d)
	}
	return last, median(times), nil
}

// preload appends vals (and rows, when non-nil) straight to the store
// in batches, as a bulk loader would.
func preload(b server.Backend, vals []string, rows []store.Row) error {
	const chunk = 4096
	for i := 0; i < len(vals); i += chunk {
		j := min(i+chunk, len(vals))
		var rs []store.Row
		if rows != nil {
			rs = rows[i:j]
		}
		if err := b.AppendBatchRows(vals[i:j], rs); err != nil {
			return err
		}
	}
	return nil
}

// dirBits is the size in bits of every file under dir.
func dirBits(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return float64(total) * 8, err
}

// urlValues is the URL access-log generator every workload draws from.
func urlValues(n int, seed int64) []string {
	return workload.URLLog(n, seed, workload.DefaultURLConfig())
}

// prefixesOf returns the two prefixes queried for a URL value: its host
// and its host plus first path segment ("" when it has none).
func prefixesOf(v string) (host, first string) {
	i := strings.IndexByte(v, '/')
	if i < 0 {
		return v, ""
	}
	j := strings.IndexByte(v[i+1:], '/')
	if j < 0 {
		return v[:i], v
	}
	return v[:i], v[:i+1+j]
}

// registry is a snapshot of the process-wide wt_* series, read through
// Client.MetricsText. Labeled series are skipped; the layer metrics
// need only the plain counters, gauges and histogram sums.
type registry map[string]float64

func readRegistry(c *server.Client) (registry, error) {
	text, err := c.MetricsText()
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	r := registry{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		r[name] = f
	}
	return r, sc.Err()
}

// delta returns after[name] - r[name].
func (r registry) delta(after registry, name string) float64 { return after[name] - r[name] }
