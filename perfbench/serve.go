package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/rng"
	"sisg/internal/server"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
	"sisg/internal/vocab"
)

const (
	cacheEntries = 1024                   // a modest /v1/similar result cache, far smaller than the catalog
	coldShare    = 0.05                   // share of serve-scan traffic on /v1/coldstart/item
	zipfExp      = 1.1                    // serve-swap seed popularity skew
	warmFor      = 500 * time.Millisecond // closed-loop load that warms connections, caches and idle CPUs in set-up

	// serveSetupReps is serve-scan's set-up count: each set-up trains a
	// model, so two keep the run inside its time budget on a slow host.
	serveSetupReps = 2

	// Live stream shape for serve-swap: one reserved item launches every
	// launchEvery sessions, popularity drifts every driftEvery sessions, and
	// the ingest loop publishes a generation every publishEvery sessions.
	reserveItems = 6000
	launchEvery  = 20
	driftEvery   = 4000
	publishEvery = 1000
	streamCases  = 3000 // fresh next-item cases scoring the final generation
)

// stack is one serving set-up: a holder, the server on a loopback listener
// and a client with one connection per sender.
type stack struct {
	ds     *corpus.Dataset
	holder *model.Holder
	hs     *http.Server
	served chan error
	tg     *target
}

// startStack serves holder on a fresh loopback listener with the production
// Config. Padding a scan with a sleep is refused: every serving figure must
// be the stack's own time.
func startStack(ds *corpus.Dataset, holder *model.Holder, seedFor func(int32) int32) (*stack, error) {
	cfg := server.Config{CacheSize: cacheEntries}
	if cfg.RetrievalDelay != 0 {
		return nil, errors.New("serving workloads refuse a non-zero RetrievalDelay")
	}
	srv := server.NewWithHolder(ds, holder, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	st := &stack{
		ds: ds, holder: holder,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	n := runtime.NumCPU()
	st.tg = &target{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n},
		},
		handler: h,
		holder:  holder,
		seedFor: seedFor,
	}
	return st, nil
}

// warm sends requests for warmFor so connections, caches and lazily built
// state exist before anything is timed.
func (st *stack) warm(draw func() (bool, int32)) error {
	ph := st.tg.closed(warmFor, draw, nil)
	if len(ph.errors)+len(ph.violations) > 0 {
		return fmt.Errorf("warm-up: %s", strings.Join(append(ph.errors, ph.violations...), "; "))
	}
	return nil
}

// stop drains the server and closes the client's connections.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.tg.client.CloseIdleConnections()
	return err
}

// scrape reads the server's counters the way an operator would: /v1/stats
// and the Prometheus text of /metrics.
func (st *stack) scrape() (server.Stats, map[string]float64, error) {
	var stats server.Stats
	if err := st.getJSON("/v1/stats", &stats); err != nil {
		return stats, nil, err
	}
	resp, err := st.tg.client.Get(st.tg.base + "/metrics")
	if err != nil {
		return stats, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only response body
	prom := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			prom[line[:i]] = v
		}
	}
	return stats, prom, sc.Err()
}

func (st *stack) getJSON(path string, v interface{}) error {
	resp, err := st.tg.client.Get(st.tg.base + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read-only response body
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// servingRun is what a serving workload contributes on top of the shared
// phases: its set-up, its traffic, and the hooks around the measured phase.
type servingRun struct {
	st    *stack
	setup time.Duration
	draw  func() (cold bool, key int32)
	// before and after bracket the measured phase (before also opens the
	// traced one) and report the workload's own metrics; finish stops any
	// writer and checks it, and is idempotent; hr scores the served model.
	before func(tr *tracer)
	after  func(out *outcome)
	finish func(out *outcome)
	hr     func() float64
}

// runServing measures a serving workload. The end-to-end figures come from
// a closed-loop phase as long as the measured time. A traced run then repeats
// that phase traced, with three-entry-point probes and counter scrapes, and
// adds an untraced open-loop phase at the nominal rate for the generator's
// own figures and a quiet per-request probe.
func runServing(p params, out *outcome, sr *servingRun) error {
	sr.before(nil)
	measured := sr.st.tg.closed(p.seconds, sr.draw, nil)
	sr.after(out)
	out.attempted += measured.attempted
	out.failed += measured.failed.Load()
	for _, e := range append(measured.errors, measured.violations...) {
		out.check(false, "measured phase: %s", e)
	}
	out.check(measured.checked.Load() > 0, "no served answer was compared with Snapshot.Similar")
	out.e2e["latency_p50_ms"] = metric{measured.p(0.50), "ms"}
	out.e2e["capacity_rps"] = metric{measured.rate, "req/s"}
	if p.trace {
		if err := tracedServing(p, out, sr, measured); err != nil {
			return err
		}
	}

	sr.finish(out)
	hr := sr.hr()
	random := float64(hrK) / float64(sr.st.ds.Dict.NumItems)
	out.check(hr > random, "HR@%d %.4f does not beat random ranking %.4f", hrK, hr, random)
	out.e2e["hr_at_20"] = metric{hr, "ratio"}
	out.e2e["heap_mb"] = metric{heapMB(), "MB"}
	out.e2e["setup_s"] = metric{seconds(sr.setup), "s"}
	if err := sr.st.stop(); err != nil {
		return err
	}
	out.check(sr.st.holder.Readers() == 0, "holder readers did not drain: %d pinned", sr.st.holder.Readers())
	return nil
}

// tracedServing runs the traced closed-loop phase and reports the serving
// layers: span percentiles per entry point and counter deltas over the
// phase; then the open-loop phase for the generator's lateness and backlog,
// and a quiet probe for allocation and scan work per request.
func tracedServing(p params, out *outcome, sr *servingRun, untraced *phase) error {
	tr := newTracer()
	stats0, prom0, err := sr.st.scrape()
	if err != nil {
		return err
	}
	sr.before(tr)
	traced := sr.st.tg.closed(p.seconds, sr.draw, tr)
	stats1, prom1, err := sr.st.scrape()
	if err != nil {
		return err
	}
	for _, e := range append(traced.errors, traced.violations...) {
		out.check(false, "traced phase: %s", e)
	}
	for name, spans := range map[string]string{
		"knn.query_us": "knn.query", "server.handler_us": "server.handler", "http.roundtrip_us": "http.roundtrip",
	} {
		ds := tr.durations(spans)
		out.layers[name+"_p50"] = metric{quantile(ds, 0.50) / 1e3, "us"}
		out.layers[name+"_p99"] = metric{quantile(ds, 0.99) / 1e3, "us"}
	}
	out.layers["sisg.coldstart_us"] = metric{quantile(tr.durations("sisg.coldstart"), 0.5) / 1e3, "us"}
	out.layers["model.acquire_ns"] = metric{quantile(tr.durations("model.acquire"), 0.5), "ns"}

	delta := func(k string) float64 { return prom1[k] - prom0[k] }
	hits, misses := delta("retrieval_cache_hits_total"), delta("retrieval_cache_misses_total")
	out.layers["server.cache_lookups"] = metric{hits + misses, "count"}
	if hits+misses > 0 {
		out.layers["server.cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
	out.layers["server.retrieval_scan_s"] = metric{delta(`retrieval_seconds_sum{source="scan"}`), "s"}
	out.layers["server.retrieval_cache_s"] = metric{delta(`retrieval_seconds_sum{source="cache"}`), "s"}
	out.layers["server.timeouts"] = metric{delta("http_request_timeouts_total"), "count"}
	out.layers["server.coalesced"] = metric{float64(stats1.Coalesced - stats0.Coalesced), "count"}
	out.layers["server.shed"] = metric{float64(stats1.Shed - stats0.Shed), "count"}
	out.layers["server.canceled"] = metric{float64(stats1.Canceled - stats0.Canceled), "count"}
	out.layers["server.brownout_entered"] = metric{float64(stats1.BrownoutEntered - stats0.BrownoutEntered), "count"}

	open := sr.st.tg.run(schedule(rng.New(p.seed^0x10ad), nominalRate, p.seconds, sr.draw), nil)
	for _, e := range append(open.errors, open.violations...) {
		out.check(false, "open-loop phase: %s", e)
	}
	out.layers["loadgen.open_latency_p50_ms"] = metric{open.p(0.50), "ms"}
	out.layers["loadgen.open_latency_p99_ms"] = metric{open.p(0.99), "ms"}
	out.layers["loadgen.late_ms_p99"] = metric{quantile(open.late, 0.99) / 1e6, "ms"}
	out.layers["loadgen.backlog_max"] = metric{float64(open.backlogMax), "count"}
	if err := quietProbe(sr, out); err != nil {
		return err
	}
	return reportLayers(tr, p, out, traced.p(0.5), untraced.p(0.5))
}

// quietProbe measures, with no other load, the allocation per in-process
// request and the scan tiles per direct retrieval, over the workload's own
// request mix.
func quietProbe(sr *servingRun, out *outcome) error {
	sr.finish(out)
	const n = 200
	tg := sr.st.tg
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		cold, key := sr.draw()
		rec := httptest.NewRecorder()
		tg.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path(cold, tg.seedFor(key), false), nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("quiet probe: %d %s", rec.Code, rec.Body.String())
		}
	}
	runtime.ReadMemStats(&ms1)
	out.layers["server.alloc_bytes_per_req"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / n, "bytes"}

	snap, release := tg.holder.Acquire()
	defer release()
	tiles0 := snap.Index().TilesScanned()
	for i := 0; i < n; i++ {
		_, key := sr.draw()
		if _, err := direct(context.Background(), snap, false, tg.seedFor(key), knn.Options{K: hrK}); err != nil {
			return fmt.Errorf("quiet probe: %w", err)
		}
	}
	out.layers["knn.tiles_per_query"] = metric{float64(snap.Index().TilesScanned()-tiles0) / n, "count"}
	return nil
}

// snapshotHR scores a snapshot's Similar on next-item cases; a query the
// snapshot cannot serve is a miss.
func snapshotHR(snap model.Snapshot, tests []corpus.TestCase) float64 {
	hits := 0
	for _, tc := range tests {
		rs, err := snap.Similar(context.Background(), []int32{tc.Query}, knn.Options{K: hrK})
		if err == nil && hit(rs[0], tc.Target) {
			hits++
		}
	}
	return float64(hits) / float64(len(tests))
}

// setUp runs build n times, each a complete set-up ending in a warmed
// stack, and returns the last stack with the median set-up time. Each
// earlier stack is stopped once its successor is up.
func setUp(n int, build func() (*stack, error)) (*stack, time.Duration, error) {
	var st *stack
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		next, err := build()
		if err == nil {
			times = append(times, float64(time.Since(start)))
		}
		if st != nil {
			if serr := st.stop(); err == nil {
				err = serr
			}
		}
		if err != nil {
			return nil, 0, err
		}
		st = next
	}
	return st, time.Duration(median(times)), nil
}

// warmed starts a stack and warms it, stopping it again if warming fails.
func warmed(ds *corpus.Dataset, holder *model.Holder, seedFor func(int32) int32, draw func() (bool, int32)) (*stack, error) {
	st, err := startStack(ds, holder, seedFor)
	if err != nil {
		return nil, err
	}
	if err := st.warm(draw); err != nil {
		_ = st.stop() // the warm-up error is the one to report
		return nil, err
	}
	return st, nil
}

// runServeScan serves a Sim25K batch model to uniform seeds: nearly every
// request misses the cache and pays the flat scan.
func runServeScan(p params, out *outcome) error {
	r := rng.New(p.seed ^ 0x5ca7)
	n := corpus.Sim25K().NumItems
	draw := func() (bool, int32) { return r.Float64() < coldShare, int32(r.Intn(n)) }
	var t *table3
	var reps []*rep
	st, setup, err := setUp(serveSetupReps, func() (*stack, error) {
		nt, err := newTable3()
		if err != nil {
			return nil, err
		}
		rp, snap, err := buildRep(nt, batchTrainer(servingOptions(p.seed, nt.v), nt.ds.Dict, nil), nil, -1, 0)
		if err != nil {
			return nil, err
		}
		t, reps = nt, append(reps, rp)
		return warmed(nt.ds, model.NewHolder(snap), func(k int32) int32 { return k }, draw)
	})
	if err != nil {
		return err
	}
	out.e2e["train_pairs_per_s"] = metric{trainRate(reps), "pairs/s"}
	out.e2e["model_ready_s"] = metric{medianOf(reps, func(r *rep) float64 { return seconds(r.ready) }), "s"}
	sr := &servingRun{
		st:     st,
		setup:  setup,
		draw:   draw,
		before: func(*tracer) {},
		after:  func(*outcome) {},
		finish: func(*outcome) {},
		hr: func() float64 {
			snap, release := st.holder.Acquire()
			defer release()
			return snapshotHR(snap, t.split.Test)
		},
	}
	return runServing(p, out, sr)
}

// ingest is serve-swap's writer: one unthrottled goroutine feeding the live
// stream through the streamer and publishing every publishEvery sessions.
type ingest struct {
	lv     *corpus.Live
	st     *sisg.Streamer
	holder *model.Holder
	base   int32  // first reserved (launching) item id
	seen   []bool // reserved items already fed
	fed    []fedItem

	tr        atomic.Pointer[tracer]
	sessions  atomic.Int64
	pairs     atomic.Int64
	publishes atomic.Int64

	mu         sync.Mutex
	fresh      []stamped // launched item freshness, ns
	publish    []stamped // Streamer.Publish + Holder.Publish, ns
	holderPub  []float64 // Holder.Publish alone, ns
	sisgPub    []float64 // Streamer.Publish alone, ns
	liveGenMax int64

	stopc chan struct{}
	done  chan struct{}
}

type fedItem struct {
	item int32
	at   time.Time
}

// stamped is a sample with the time it was taken, so a phase can select
// the samples that fell inside it.
type stamped struct {
	at time.Time
	v  float64
}

func (in *ingest) step() {
	tr := in.tr.Load()
	req := in.sessions.Load()
	root := tr.begin("bench.ingest", -1, req)
	sp := tr.begin("corpus.live_next", root, req)
	s := in.lv.Next()
	tr.end(sp)
	now := time.Now()
	for _, it := range s.Items {
		if it >= in.base && !in.seen[it-in.base] {
			in.seen[it-in.base] = true
			in.fed = append(in.fed, fedItem{it, now})
		}
	}
	sp = tr.begin("sisg.admit", root, req)
	seq := in.st.Admit(s)
	tr.end(sp)
	sp = tr.begin("sisg.stream_train", root, req)
	in.st.Train(seq)
	tr.end(sp)
	in.pairs.Store(int64(in.st.Pairs()))
	if in.st.Sessions()%publishEvery == 0 {
		in.publishNow(tr, root, req)
	}
	tr.end(root)
	in.sessions.Add(1)
}

func (in *ingest) publishNow(tr *tracer, root int, req int64) {
	t0 := time.Now()
	sp := tr.begin("sisg.publish", root, req)
	snap := in.st.Publish()
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("model.publish", root, req)
	in.holder.Publish(snap)
	tr.end(sp)
	t2 := time.Now()
	in.publishes.Add(1)
	kept := in.fed[:0]
	var fresh []stamped
	for _, f := range in.fed {
		if snap.Servable(f.item) {
			fresh = append(fresh, stamped{t2, float64(t2.Sub(f.at))})
		} else {
			kept = append(kept, f)
		}
	}
	in.fed = kept
	live := in.holder.LiveGenerations()
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fresh = append(in.fresh, fresh...)
	in.publish = append(in.publish, stamped{t2, float64(t2.Sub(t0))})
	in.sisgPub = append(in.sisgPub, float64(t1.Sub(t0)))
	in.holderPub = append(in.holderPub, float64(t2.Sub(t1)))
	if live > in.liveGenMax {
		in.liveGenMax = live
	}
}

func (in *ingest) start() {
	in.stopc = make(chan struct{})
	in.done = make(chan struct{})
	go func() {
		defer close(in.done)
		for {
			select {
			case <-in.stopc:
				return
			default:
				in.step()
			}
		}
	}()
}

func (in *ingest) stop() {
	close(in.stopc)
	<-in.done
}

// between returns the values of samples taken in [from, to].
func between(xs []stamped, from, to time.Time) []float64 {
	var out []float64
	for _, x := range xs {
		if !x.at.Before(from) && !x.at.After(to) {
			out = append(out, x.v)
		}
	}
	return out
}

// newLive builds the serve-swap stream and streamer and ingests the first
// publish interval, returning the ingest loop (not yet started) with
// generation 1 published into a fresh holder.
func newLive(seed uint64) (*ingest, error) {
	base := corpus.Sim25K()
	base.Seed = seed
	lv, err := corpus.NewLive(corpus.LiveConfig{
		Base: base, ReserveItems: reserveItems, LaunchEvery: launchEvery, DriftEvery: driftEvery,
	})
	if err != nil {
		return nil, err
	}
	v, err := sisg.VariantByName(variantName)
	if err != nil {
		return nil, err
	}
	budget := lv.Dict.Len()
	lo := sgns.LiveDefaults(budget)
	lo.Seed = seed
	st, err := sisg.NewStreamer(lv.Dict, sisg.StreamConfig{
		Variant: v,
		Admit:   vocab.AdmitConfig{Budget: budget, MinCount: 1},
		Live:    lo,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < publishEvery; i++ {
		st.Ingest(lv.Next())
	}
	in := &ingest{
		lv: lv, st: st,
		holder: model.NewHolder(st.Publish()),
		base:   int32(base.NumItems),
		seen:   make([]bool, reserveItems),
	}
	return in, nil
}

// runServeSwap serves Zipf-skewed reads from a holder the streaming trainer
// publishes into while it ingests the live stream on the other core.
func runServeSwap(p params, out *outcome) error {
	r := rng.New(p.seed ^ 0x5a1d)
	var in *ingest
	var zipf *rng.Zipf
	draw := func() (bool, int32) { return false, int32(zipf.Sample()) }
	st, setup, err := setUp(setupReps, func() (*stack, error) {
		nin, err := newLive(p.seed)
		if err != nil {
			return nil, err
		}
		universe := len(nin.lv.Catalog.Items)
		zipf = rng.NewZipf(r, universe, zipfExp)
		perm := r.Perm(universe)
		in = nin
		return warmed(nin.lv.Dataset(), nin.holder, func(key int32) int32 { return servableAt(nin.holder, perm, int(key)) }, draw)
	})
	if err != nil {
		return err
	}
	in.start()
	var from, to time.Time
	var sessions0, pairs0 int64
	stopped := false
	sr := &servingRun{
		st:    st,
		setup: setup,
		draw:  draw,
		before: func(tr *tracer) {
			in.tr.Store(tr)
			from, sessions0, pairs0 = time.Now(), in.sessions.Load(), in.pairs.Load()
		},
		after: func(out *outcome) {
			to = time.Now()
			el := to.Sub(from).Seconds()
			out.e2e["ingest_sessions_per_s"] = metric{float64(in.sessions.Load()-sessions0) / el, "sessions/s"}
			out.e2e["train_pairs_per_s"] = metric{float64(in.pairs.Load()-pairs0) / el, "pairs/s"}
			in.mu.Lock()
			defer in.mu.Unlock()
			fresh := between(in.fresh, from, to)
			out.check(len(fresh) > 0, "no launched item became servable during the measured phase")
			out.e2e["item_freshness_ms"] = metric{median(fresh) / 1e6, "ms"}
			out.e2e["model_ready_s"] = metric{median(between(in.publish, from, to)) / 1e9, "s"}
		},
		finish: func(out *outcome) {
			if stopped {
				return
			}
			stopped = true
			in.stop()
			pubs := uint64(in.publishes.Load())
			out.check(in.holder.Generation() == 1+pubs, "holder generation %d after %d publishes, want %d",
				in.holder.Generation(), pubs, 1+pubs)
			out.check(pubs > 0, "no generation was published during the run")
		},
	}
	sr.hr = func() float64 {
		snap, release := in.holder.Acquire()
		defer release()
		var tests []corpus.TestCase
		for len(tests) < streamCases {
			s := in.lv.Next()
			n := len(s.Items)
			tests = append(tests, corpus.TestCase{Query: s.Items[n-2], Target: s.Items[n-1]})
		}
		return snapshotHR(snap, tests)
	}
	if err := runServing(p, out, sr); err != nil {
		return err
	}
	if p.trace {
		in.mu.Lock()
		defer in.mu.Unlock()
		out.layers["sisg.publish_ms"] = metric{median(in.sisgPub) / 1e6, "ms"}
		out.layers["model.publish_us"] = metric{median(in.holderPub) / 1e3, "us"}
		out.layers["model.live_generations_max"] = metric{float64(in.liveGenMax), "count"}
		out.layers["sisg.seeded_items"] = metric{float64(in.st.SeededItems()), "count"}
		out.layers["vocab.admitted_rows"] = metric{float64(in.st.Admitted()), "count"}
		out.layers["sgns.live_pairs"] = metric{float64(in.st.Pairs()), "count"}
		tr := in.tr.Load()
		perSession := func(name string) float64 {
			ds := tr.durations(name)
			if len(ds) == 0 {
				return 0
			}
			var sum float64
			for _, d := range ds {
				sum += d
			}
			return sum / float64(len(ds)) / 1e3
		}
		out.layers["corpus.live_next_us"] = metric{perSession("corpus.live_next"), "us"}
		out.layers["sisg.admit_us"] = metric{perSession("sisg.admit"), "us"}
		out.layers["sisg.stream_train_us"] = metric{perSession("sisg.stream_train"), "us"}
	}
	return nil
}

// servableAt maps a popularity rank to the first item at or after it, in
// the rank permutation, that the current generation can serve: seeds are
// drawn only from items fed before the generation that answers them.
func servableAt(h *model.Holder, perm []int, rank int) int32 {
	snap, release := h.Acquire()
	defer release()
	for i := 0; i < len(perm); i++ {
		it := int32(perm[(rank+i)%len(perm)])
		if snap.Servable(it) {
			return it
		}
	}
	return int32(perm[rank])
}
