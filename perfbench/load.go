package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/rng"
	"sisg/internal/server"
)

const (
	nominalRate = 1000.0 // req/s the open-loop phase of a traced run offers
	checkEvery  = 16     // every 16th answer is compared with Snapshot.Similar
	probeEvery  = 8      // traced runs probe every 8th request through all three entry points
	// rateWindow is the window a closed-loop phase's rate is counted over
	// (see windowRate).
	rateWindow = time.Second
)

// arrival is one scheduled request: its due offset from the phase start and
// the request it carries. key picks the seed: an item id (uniform traffic)
// or a popularity rank the target maps to a servable item at send time.
type arrival struct {
	at   time.Duration
	cold bool
	key  int32
}

// schedule draws a Poisson arrival process at rate for d.
func schedule(r *rng.RNG, rate float64, d time.Duration, draw func() (cold bool, key int32)) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		cold, key := draw()
		out = append(out, arrival{at: at, cold: cold, key: key})
	}
}

// target is a serving stack under load: the loopback base URL, the
// in-process handler of the same server, and the holder both read.
type target struct {
	base    string
	client  *http.Client
	handler http.Handler
	holder  *model.Holder
	// seedFor maps an arrival key to the seed item to request.
	seedFor func(key int32) int32
}

// phase is what one open- or closed-loop phase measured.
type phase struct {
	dur        time.Duration
	lat        []float64 // ns per attempted request, +Inf for a failure
	rate       float64   // closed loop: answers/s, see windowRate
	late       []float64 // open loop: ns an idle sender woke after the due time
	backlogMax int
	attempted  int64
	failed     atomic.Int64
	checked    atomic.Int64 // answers compared with Snapshot.Similar
	// errors are requests that got no answer (transport error or non-200);
	// violations are answers that failed an output check. No phase
	// tolerates either.
	errors     []string
	violations []string
	mu         sync.Mutex
}

func (ph *phase) note(list *[]string, format string, args ...interface{}) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if len(*list) < 20 {
		*list = append(*list, fmt.Sprintf(format, args...))
	}
}

func (ph *phase) errorf(format string, args ...interface{}) { ph.note(&ph.errors, format, args...) }

func (ph *phase) violation(format string, args ...interface{}) {
	ph.note(&ph.violations, format, args...)
}

// p returns the latency quantile in ms, a failure counting as a miss of any
// limit.
func (ph *phase) p(q float64) float64 { return ph.ms(quantile(ph.lat, q)) }

// ms converts a latency in ns to ms, capping a failure's infinite latency at
// the phase length so the figure stays a number.
func (ph *phase) ms(ns float64) float64 {
	if math.IsInf(ns, 1) {
		ns = float64(ph.dur)
	}
	return ns / 1e6
}

// run offers the arrivals open-loop from nproc sender goroutines, each with
// its own connection. A request that waited behind a busy sender is timed
// from its due time; a sender that slept and woke late times from the actual
// send and records the overshoot as generator lateness.
func (tg *target) run(arrivals []arrival, tr *tracer) *phase {
	ph := &phase{}
	if len(arrivals) > 0 {
		ph.dur = arrivals[len(arrivals)-1].at
	}
	senders := runtime.NumCPU()
	ph.lat = make([]float64, len(arrivals))
	late := make([][]float64, senders)
	backlog := make([]int, senders)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				due := start.Add(a.at)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					late[w] = append(late[w], float64(from.Sub(due)))
				} else {
					now := time.Since(start)
					queued := sort.Search(len(arrivals)-i, func(j int) bool { return arrivals[i+j].at > now })
					if queued > backlog[w] {
						backlog[w] = queued
					}
				}
				ok, done := tg.do(a, i, from, tr, ph)
				d := float64(done.Sub(from))
				if !ok {
					d = math.Inf(1)
				}
				ph.lat[i] = d
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < senders; w++ {
		ph.late = append(ph.late, late[w]...)
		if backlog[w] > ph.backlogMax {
			ph.backlogMax = backlog[w]
		}
	}
	ph.attempted = int64(len(arrivals))
	return ph
}

// path is the request line for an arrival's seed; flat forces the exact scan
// past the cache, which the traced probes use so all three entry points do
// the same work.
func path(cold bool, seed int32, flat bool) string {
	if cold {
		return "/v1/coldstart/item?item=" + strconv.Itoa(int(seed)) + "&k=" + strconv.Itoa(hrK)
	}
	p := "/v1/similar?item=" + strconv.Itoa(int(seed)) + "&k=" + strconv.Itoa(hrK)
	if flat {
		p += "&index=flat"
	}
	return p
}

// do sends one request over the socket and checks the answer, returning
// whether it passed and when the answer was in. In a traced run every
// probeEvery-th request is also re-issued in-process through ServeHTTP and
// directly against the pinned snapshot; the three spans nest (transport ⊃
// handler ⊃ retrieval) so their differences are the self times.
func (tg *target) do(a arrival, i int, from time.Time, tr *tracer, ph *phase) (bool, time.Time) {
	seed := tg.seedFor(a.key)
	probe := tr != nil && i%probeEvery == 0
	url := path(a.cold, seed, probe)
	t0 := time.Now()
	resp, err := tg.client.Get(tg.base + url)
	if err != nil {
		ph.count(false)
		ph.errorf("GET %s: %v", url, err)
		return false, time.Now()
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read-only response body
	done := time.Now()
	if err != nil {
		ph.count(false)
		ph.errorf("GET %s: reading body: %v", url, err)
		return false, done
	}
	ok := tg.verify(a.cold, seed, resp, body, i%checkEvery == 0 && !probe, ph)
	ph.count(ok)
	if probe {
		root := tr.record("bench.request", -1, int64(i), from, done.Sub(from))
		rt := tr.record("http.roundtrip", root, int64(i), t0, done.Sub(t0))
		tg.probe(a.cold, seed, url, resp.Header.Get("X-Model-Generation"), body, tr, rt, int64(i), ph)
	}
	return ok, done
}

func (ph *phase) count(ok bool) {
	if !ok {
		ph.failed.Add(1)
	}
}

// verify checks one socket answer: a 200 is a k-length candidate list in
// score-desc/id-asc order without its own seed; a sampled one must equal
// Snapshot.Similar on the generation named by X-Model-Generation.
func (tg *target) verify(cold bool, seed int32, resp *http.Response, body []byte, sample bool, ph *phase) bool {
	if resp.StatusCode != http.StatusOK {
		ph.errorf("%s for seed %d: %d %s", kind(cold), seed, resp.StatusCode, body)
		return false
	}
	var cands []server.Candidate
	if err := json.Unmarshal(body, &cands); err != nil {
		ph.violation("%s for seed %d: undecodable answer: %v", kind(cold), seed, err)
		return false
	}
	if msg := wellFormed(cands, seed); msg != "" {
		ph.violation("%s for seed %d: %s", kind(cold), seed, msg)
		return false
	}
	if !sample || resp.Header.Get("X-Degraded") != "" {
		return true
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Model-Generation"), 10, 64)
	if err != nil {
		ph.violation("%s for seed %d: bad X-Model-Generation: %v", kind(cold), seed, err)
		return false
	}
	snap, release := tg.holder.Acquire()
	defer release()
	if snap.Generation() != gen {
		return true // a publish replaced the answering generation
	}
	want, err := direct(context.Background(), snap, cold, seed, knn.Options{K: hrK})
	if err != nil {
		ph.violation("%s for seed %d: Snapshot on generation %d: %v", kind(cold), seed, gen, err)
		return false
	}
	ph.checked.Add(1)
	if msg := same(cands, want); msg != "" {
		ph.violation("%s for seed %d on generation %d: served answer differs from Snapshot: %s", kind(cold), seed, gen, msg)
		return false
	}
	return true
}

func kind(cold bool) string {
	if cold {
		return "coldstart"
	}
	return "similar"
}

func wellFormed(cands []server.Candidate, seed int32) string {
	if len(cands) != hrK {
		return fmt.Sprintf("%d candidates, want %d", len(cands), hrK)
	}
	for i, c := range cands {
		if c.Item == seed {
			return fmt.Sprintf("candidate %d is the seed itself", i)
		}
		if i > 0 {
			p := cands[i-1]
			if p.Score < c.Score || (p.Score == c.Score && p.Item >= c.Item) {
				return fmt.Sprintf("candidates %d,%d out of score-desc/id-asc order: (%d,%g) then (%d,%g)",
					i-1, i, p.Item, p.Score, c.Item, c.Score)
			}
		}
	}
	return ""
}

func same(got []server.Candidate, want []knn.Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, Snapshot gives %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Item != want[i].ID || got[i].Score != want[i].Score {
			return fmt.Sprintf("rank %d: served (%d,%g), Snapshot (%d,%g)", i, got[i].Item, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return ""
}

// direct answers a request straight from a snapshot, the way the handler
// does: Similar for a catalog seed, the Eq. 6 composition plus a vector scan
// for a cold-start item.
func direct(ctx context.Context, snap model.Snapshot, cold bool, seed int32, opts knn.Options) ([]knn.Result, error) {
	if cold {
		qv, err := snap.ColdItemVector(seed)
		if err != nil {
			return nil, err
		}
		return snap.SimilarToVector(ctx, qv, opts.K, func(id int32) bool { return id == seed })
	}
	rs, err := snap.Similar(ctx, []int32{seed}, opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// probe re-issues a traced request in-process and against the snapshot. The
// socket answer already carried the forced flat scan, so all three entry
// points did the same retrieval, and the probe's own answers must match it.
func (tg *target) probe(cold bool, seed int32, url, genHeader string, body []byte, tr *tracer, parent int, req int64, ph *phase) {
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodGet, url, nil)
	t0 := time.Now()
	tg.handler.ServeHTTP(rec, hreq)
	h := tr.record("server.handler", parent, req, t0, time.Since(t0))

	t0 = time.Now()
	snap, release := tg.holder.Acquire()
	tr.record("model.acquire", h, req, t0, time.Since(t0))
	defer release()
	ctx := context.Background()
	var want []knn.Result
	var err error
	if cold {
		t0 = time.Now()
		var qv []float32
		qv, err = snap.ColdItemVector(seed)
		tr.record("sisg.coldstart", h, req, t0, time.Since(t0))
		if err == nil {
			t0 = time.Now()
			want, err = snap.SimilarToVector(ctx, qv, hrK, func(id int32) bool { return id == seed })
			tr.record("knn.query", h, req, t0, time.Since(t0))
		}
	} else {
		t0 = time.Now()
		want, err = direct(ctx, snap, false, seed, knn.Options{K: hrK, Index: knn.IndexFlat})
		tr.record("knn.query", h, req, t0, time.Since(t0))
	}
	if err != nil {
		ph.violation("probe %s for seed %d: %v", kind(cold), seed, err)
		return
	}
	if strconv.FormatUint(snap.Generation(), 10) != genHeader || rec.Header().Get("X-Model-Generation") != genHeader {
		return // a publish landed between the entry points; answers may differ
	}
	var viaSocket, inProcess []server.Candidate
	if json.Unmarshal(body, &viaSocket) != nil || json.Unmarshal(rec.Body.Bytes(), &inProcess) != nil {
		ph.violation("probe %s for seed %d: undecodable answer", kind(cold), seed)
		return
	}
	ph.checked.Add(1)
	if msg := same(viaSocket, want); msg != "" {
		ph.violation("probe %s for seed %d: socket answer differs from Snapshot: %s", kind(cold), seed, msg)
	}
	if msg := same(inProcess, want); msg != "" {
		ph.violation("probe %s for seed %d: in-process answer differs from Snapshot: %s", kind(cold), seed, msg)
	}
}

// closed drives the stack closed-loop for d: nproc senders, one connection
// each, every sender issuing its next request as soon as the previous answer
// is in. Each request is timed from its send, and the phase's rate counts
// the answers that passed their checks.
func (tg *target) closed(d time.Duration, draw func() (cold bool, key int32), tr *tracer) *phase {
	ph := &phase{dur: d}
	senders := runtime.NumCPU()
	lat := make([][]float64, senders)
	done := make([][]time.Duration, senders)
	var drawMu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for from := time.Now(); from.Before(end); from = time.Now() {
				drawMu.Lock()
				cold, key := draw()
				drawMu.Unlock()
				ok, at := tg.do(arrival{cold: cold, key: key}, int(next.Add(1)-1), from, tr, ph)
				l := float64(at.Sub(from))
				if !ok {
					l = math.Inf(1)
				}
				lat[w] = append(lat[w], l)
				if ok {
					done[w] = append(done[w], at.Sub(start))
				}
			}
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for w := 0; w < senders; w++ {
		ph.lat = append(ph.lat, lat[w]...)
		all = append(all, done[w]...)
	}
	ph.rate = windowRate(all, d, rateWindow)
	ph.attempted = int64(len(ph.lat))
	return ph
}
