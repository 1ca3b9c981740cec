package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynmon"
	"repro/dynserve"
	"repro/internal/rng"
)

// dynmondMix is POST /v1/runs in buffered JSON mode from a closed loop of
// nproc clients.  Out of every 20 requests 12 are cache hits on a small
// fixed spec set, 5 are result misses on cached small-torus systems
// (distinct seeds) and 3 are fully cold Barabasi-Albert specs (distinct
// graph seeds: graph generation and CSR build).
type dynmondMix struct {
	b    *bench
	hits [][]byte
	srv  *server // the set-up server, used by window or the first pass
}

// request i of the deterministic request sequence.
func (d *dynmondMix) request(i int) ([]byte, string) {
	sc, seed := d.b.sc, d.b.opt.seed
	h := rng.Hash(seed, uint64(i), 0xd1)
	switch slot := i % 20; {
	case slot < 12:
		return d.hits[h%uint64(len(d.hits))], "hit"
	case slot < 17:
		k := 3 + 2*int(h&1)
		return randomSpec("toroidal-mesh", sc.dmSide, k, h>>1, sc.dmRounds, 0, ""), "miss"
	default:
		return baSpec(sc.dmGraphN, h>>1, sc.dmRounds), "cold"
	}
}

// baSpec is a 2-color generalized-SMP run on a fresh Barabasi-Albert graph.
func baSpec(n int, seed uint64, rounds int) []byte {
	return fmt.Appendf(nil, `{"system":{"substrate":{"generator":{"name":"barabasi-albert","n":%d,"params":{"m":2},"seed":%d}},"colors":2},"initial":{"config":"random","size":%d,"seed":%d},"run":{"target":1,"max_rounds":%d,"stop_when_monochromatic":true}}`,
		n, seed, n/10, seed^0x9e37, rounds)
}

// newDynmondMix builds the request generator: six hit specs, a minimum
// dynamo and a random coloring on each paper torus.
func newDynmondMix(b *bench) *dynmondMix {
	d := &dynmondMix{b: b}
	for _, topo := range paperTori {
		d.hits = append(d.hits,
			minimumSpec(topo, b.sc.dmSide, 5),
			randomSpec(topo, b.sc.dmSide, 3, 7, b.sc.dmRounds, 0, ""))
	}
	return d
}

func setupDynmond(b *bench) (wlState, error) {
	d := newDynmondMix(b)
	srv, err := d.startWarm()
	if err != nil {
		return nil, err
	}
	d.srv = srv
	return d, nil
}

// startWarm starts a server and fills its caches the way the window
// expects them: every hit spec cached, every small-torus system built.
func (d *dynmondMix) startWarm() (*server, error) {
	srv, err := startServer(d.b)
	if err != nil {
		return nil, err
	}
	warm := append([][]byte(nil), d.hits...)
	for _, k := range []int{3, 5} {
		warm = append(warm, randomSpec("toroidal-mesh", d.b.sc.dmSide, k, 1<<62, d.b.sc.dmRounds, 0, ""))
	}
	for _, spec := range warm {
		if _, status, err := srv.post(nil, nil, spec); err != nil || status != http.StatusOK {
			srv.close()
			return nil, fmt.Errorf("warming the server: status %d: %v", status, err)
		}
	}
	return srv, nil
}

func (d *dynmondMix) close() {
	if d.srv != nil {
		d.srv.close()
	}
}

// record is one answered request.
type record struct {
	i      int
	class  string
	status int
	sum    [32]byte
	lat    time.Duration
	done   time.Time
}

// load runs the closed loop: nproc clients, each sending request i only
// after its previous one was answered, over requests [0, limit) or until
// the deadline.
func (d *dynmondMix) load(srv *server, tr *tracer, deadline time.Time, limit int) []record {
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []record
		wg   sync.WaitGroup
	)
	for c := 0; c < d.b.nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (limit == 0 && time.Now().After(deadline)) {
					return
				}
				spec, class := d.request(i)
				root := tr.begin(nil, "op")
				t0 := time.Now()
				body, status, err := srv.post(tr, root, spec)
				lat := time.Since(t0)
				root.end(class)
				if err != nil {
					status = 0
				}
				if status == http.StatusOK {
					body = d.b.maybeCorrupt(body)
				}
				mu.Lock()
				recs = append(recs, record{i: i, class: class, status: status, sum: sha256.Sum256(body), lat: lat, done: t0.Add(lat)})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// verify checks every answer against the library's Result bytes for the
// same spec, which equal digests promise; it runs after the measurement.
func (d *dynmondMix) verify(recs []record) {
	want := make([][32]byte, len(recs))
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		hits sync.Map
	)
	for c := 0; c < d.b.nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(recs) {
					return
				}
				spec, class := d.request(recs[j].i)
				if class == "hit" {
					if v, ok := hits.Load(string(spec)); ok {
						want[j] = v.([32]byte)
						continue
					}
				}
				out, _, err := libraryRun(d.b.ctx, nil, nil, spec, nil)
				if err != nil {
					continue // want stays zero: the record fails
				}
				want[j] = sha256.Sum256(append(out, '\n'))
				if class == "hit" {
					hits.Store(string(spec), want[j])
				}
			}
		}()
	}
	wg.Wait()
	for j, r := range recs {
		d.b.attempted.Add(1)
		switch {
		case r.status != http.StatusOK:
			d.b.fail("request", fmt.Errorf("request %d (%s): status %d", r.i, r.class, r.status))
		case r.sum != want[j]:
			d.b.fail("response", fmt.Errorf("request %d (%s): response differs from the library's Result bytes", r.i, r.class))
		}
	}
}

func (d *dynmondMix) window(b *bench, dur time.Duration) windowResult {
	var res windowResult
	rss := startRSSSampler()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				res.peaks = append(res.peaks, rss.take())
			}
		}
	}()
	t0 := time.Now()
	recs := d.load(d.srv, nil, t0.Add(dur), 0)
	close(stop)
	<-sampled
	res.peaks = append(res.peaks, rss.take())
	rss.close()
	d.verify(recs)
	// Throughput per one-second slice of the window.
	slices := make([]int, max(1, int(dur/time.Second)))
	for _, r := range recs {
		if r.status == http.StatusOK {
			res.latMs = append(res.latMs, ms(r.lat))
			if k := int(r.done.Sub(t0) / time.Second); k < len(slices) {
				slices[k]++
			}
		}
	}
	slice := dur.Seconds() / float64(len(slices))
	for _, n := range slices {
		res.rates = append(res.rates, float64(n)/slice)
	}
	return res
}

// pass runs the fixed request list on a fresh, warmed server: the set-up
// server on the first pass, so that the memory counters read around it see
// only the requests, and a new one after that.  The traced pass also
// reports the hit and miss latencies, the server's own counters, and parse
// and digest times of the request specs.
func (d *dynmondMix) pass(b *bench, tr *tracer, ls *layerStats) (time.Duration, func()) {
	srv := d.srv
	d.srv = nil
	if srv == nil {
		var err error
		if srv, err = d.startWarm(); err != nil {
			b.fail("server", err)
			return 0, func() {}
		}
	}
	srv.tr.Store(tr)
	recs := d.load(srv, tr, time.Time{}, b.sc.dmPassOps)
	snap := srv.srv.Metrics().Snapshot()
	var total time.Duration
	var hit, miss []float64
	for _, r := range recs {
		total += r.lat
		if r.class == "hit" {
			hit = append(hit, ms(r.lat))
		} else {
			miss = append(miss, ms(r.lat))
		}
	}
	if ls != nil {
		ls.set("dynserve.hit_p50_ms", median(hit))
		ls.set("dynserve.miss_p50_ms", median(miss))
		setServerCounters(ls, snap)
		for i := 0; i < b.sc.dmPassOps; i++ {
			spec, _ := d.request(i)
			sp := tr.begin(nil, "probe.dynmon.parse")
			fs, err := dynmon.ParseFileSpec(spec)
			ls.addDur("dynmon.parse", sp.end(""))
			if err != nil {
				continue
			}
			sp = tr.begin(nil, "probe.dynmon.digest")
			_, err = fs.Digest() // the server answered this spec, so its digest exists
			ls.addDur("dynmon.digest", sp.end(""))
			if err != nil {
				b.fail("digest", err)
			}
		}
	}
	return total, func() {
		srv.close()
		d.verify(recs)
	}
}

// setServerCounters copies the server's cache, shed and run counters.
func setServerCounters(ls *layerStats, snap map[string]any) {
	num := func(k string) float64 {
		switch v := snap[k].(type) {
		case int64:
			return float64(v)
		case float64:
			return v
		}
		return 0
	}
	ls.set("dynserve.cache_hit_ratio", num("cache_hit_rate"))
	ls.set("dynserve.shed_total", num("shed_total"))
	ls.set("dynserve.runs_started", num("runs_started_total"))
}

// server is an in-process dynserve.Server behind a loopback listener.
type server struct {
	srv    *dynserve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
	tr     atomic.Pointer[tracer] // set: handler spans join the client's operation
}

const spanHeader = "X-Perfbench-Span"

func startServer(b *bench) (*server, error) {
	srv, err := dynserve.New(dynserve.Config{Workers: b.nproc()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + ln.Addr().String() + "/v1/runs", done: make(chan struct{})}
	h := srv.Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := s.tr.Load().beginRemote(r.Header.Get(spanHeader), "dynserve.handler")
		h.ServeHTTP(w, r)
		sp.end("")
	})}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.nproc(),
		MaxIdleConnsPerHost: b.nproc(),
		DisableCompression:  true,
	}}
	go func() {
		// Serve returns http.ErrServerClosed once close shuts it down.
		s.hs.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// post submits one spec and returns the response body and status.
func (s *server) post(tr *tracer, root *active, spec []byte) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(spec))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Accept", "application/json")
	req.Header.Set("Content-Type", "application/json")
	if root != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", root.span.ID, root.span.Op))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// close stops the listener and the server and waits for both; every
// request has been answered by then, so their errors carry no news.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	_ = s.srv.Drain(ctx)
}
