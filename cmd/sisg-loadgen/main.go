// Command sisg-loadgen drives the serving stack with OPEN-LOOP load: the
// arrival process is a Poisson stream at the offered rate, independent of
// how fast the server answers. Closed-loop drivers (fire, wait, fire)
// self-throttle exactly when the server slows down, hiding the overload
// behaviors this repo's serving tier exists to survive; an open-loop
// generator keeps offering load while the server sheds, coalesces and
// browns out — which is what production traffic does.
//
// Traffic is a head-skewed mix: /v1/similar seeds drawn Zipf-distributed
// over the catalog (so single-flight coalescing has something to coalesce),
// a -cold fraction of cold-start item requests, and a -cancel fraction of
// requests whose client hangs up -cancel-after into the call (exercising
// scan cancellation and admission-budget release).
//
// Every response is audited: a valid candidate array, or the one JSON
// error envelope with a stable machine code. Anything else is counted
// bad_envelope — the invariant "every answer is well-formed, even under
// overload" is the point of the exercise.
//
// With -self-serve the generator boots an in-process server (tiny corpus,
// one-epoch model) on a loopback listener, so CI can smoke-test the whole
// overload story in one command with no orchestration. Numbers from that
// mode measure the serving stack on loopback, not a network fabric; the
// BENCH rows say so.
//
// With -out, results rewrite the "serving" section of BENCH_serving.json
// (other sections are preserved; see internal/benchio).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"sisg/internal/benchio"
	"sisg/internal/corpus"
	"sisg/internal/experiments"
	"sisg/internal/model"
	"sisg/internal/rng"
	"sisg/internal/server"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisg-loadgen: ")
	var (
		addr          = flag.String("addr", "", "target base URL (e.g. http://127.0.0.1:8080); empty requires -self-serve")
		selfServe     = flag.Bool("self-serve", false, "boot an in-process server on loopback and load it")
		rate          = flag.Float64("rate", 100, "offered arrival rate, requests/second (Poisson)")
		duration      = flag.Duration("duration", 5*time.Second, "how long to offer load")
		seed          = flag.Uint64("seed", 42, "RNG seed for arrivals, seeds and traffic mix")
		zipfS         = flag.Float64("zipf", 1.1, "Zipf exponent for /v1/similar seed popularity")
		k             = flag.Int("k", 20, "candidate-set size requested")
		coldFrac      = flag.Float64("cold", 0.05, "fraction of traffic hitting /v1/coldstart/item")
		cancelFrac    = flag.Float64("cancel", 0, "fraction of requests whose client hangs up mid-call")
		cancelAfter   = flag.Duration("cancel-after", 2*time.Millisecond, "client hang-up delay for the -cancel fraction")
		clientTimeout = flag.Duration("client-timeout", 5*time.Second, "per-request client-side timeout")
		label         = flag.String("label", "", "bench-row label (default nominal/overload by context)")
		out           = flag.String("out", "BENCH_serving.json", "bench trajectory file to update (empty = don't write)")

		selfCorpus   = flag.String("self-corpus", "tiny", "-self-serve dataset config")
		selfInflight = flag.Int("self-inflight", 8, "-self-serve admission budget in flat-scan units")
		selfCache    = flag.Int("self-cache", 0, "-self-serve /v1/similar LRU entries (0 = off)")
		selfDelay    = flag.Duration("self-delay", 0, "-self-serve artificial per-scan delay (makes a tiny corpus behave like a big one)")
		selfHold     = flag.Duration("self-hold", 500*time.Millisecond, "-self-serve brownout hold window")
		selfTimeout  = flag.Duration("self-request-timeout", 2*time.Second, "-self-serve per-request deadline")

		maxFiveXX = flag.Int("assert-max-5xx", -1, "fail if more than this many responses had status >= 500 (-1 = no assert)")
		maxBadEnv = flag.Int("assert-max-bad-envelope", -1, "fail if more than this many responses were malformed (-1 = no assert)")
		minShed   = flag.Int("assert-min-shed", 0, "fail unless the server shed at least this many requests")
		minCoal   = flag.Int("assert-min-coalesced", 0, "fail unless at least this many requests were coalesced")
	)
	flag.Parse()

	base := *addr
	items := 0
	if *selfServe {
		var shutdown func()
		base, items, shutdown = startSelfServer(*selfCorpus, *seed, server.Config{
			MaxInFlight:    *selfInflight,
			CacheSize:      *selfCache,
			RetrievalDelay: *selfDelay,
			BrownoutHold:   *selfHold,
			RequestTimeout: *selfTimeout,
		})
		defer shutdown()
	} else if base == "" {
		log.Fatal("need -addr or -self-serve")
	}

	client := &http.Client{
		Timeout: *clientTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
		},
	}
	if items == 0 {
		items = discoverItems(client, base)
	}
	log.Printf("target %s: %d catalog items", base, items)

	r := rng.New(*seed)
	zipf := rng.NewZipf(r.Split(), items, *zipfS)
	before := scrapeStats(client, base)

	col := &collector{outcomes: make(map[string]int)}
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	offered := 0
	for {
		// Exponential inter-arrival gap: -ln(U)/rate. The schedule is a
		// ladder of ABSOLUTE times — if the generator falls behind it fires
		// immediately and catches up, it never lets the server's slowness
		// stretch the offered schedule (that would close the loop).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		next = next.Add(time.Duration(-math.Log(u) / *rate * float64(time.Second)))
		if next.Sub(start) > *duration {
			break
		}
		time.Sleep(time.Until(next))

		url := fmt.Sprintf("%s/v1/similar?item=%d&k=%d", base, zipf.Sample(), *k)
		if r.Float64() < *coldFrac {
			url = fmt.Sprintf("%s/v1/coldstart/item?item=%d&k=%d", base, zipf.Sample(), *k)
		}
		hangup := time.Duration(0)
		if *cancelFrac > 0 && r.Float64() < *cancelFrac {
			hangup = *cancelAfter
		}
		offered++
		wg.Add(1)
		go func() {
			defer wg.Done()
			col.record(fire(client, url, hangup))
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := scrapeStats(client, base)

	report(col, offered, *rate, elapsed, before, after)

	if *out != "" {
		lbl := *label
		if lbl == "" {
			lbl = fmt.Sprintf("rate%g", *rate)
		}
		if err := writeBenchRow(*out, lbl, *rate, elapsed, *selfServe, col, before, after); err != nil {
			log.Fatal(err)
		}
		log.Printf("updated %s section %q", *out, "serving")
	}

	failed := false
	check := func(ok bool, format string, args ...interface{}) {
		if !ok {
			failed = true
			log.Printf("ASSERT FAILED: "+format, args...)
		}
	}
	if *maxFiveXX >= 0 {
		check(col.fiveXX <= *maxFiveXX, "%d responses with status >= 500, want <= %d", col.fiveXX, *maxFiveXX)
	}
	if *maxBadEnv >= 0 {
		bad := col.outcomes["bad_envelope"]
		check(bad <= *maxBadEnv, "%d malformed responses, want <= %d", bad, *maxBadEnv)
	}
	shed := int(after.Shed - before.Shed)
	coal := int(after.Coalesced - before.Coalesced)
	check(shed >= *minShed, "server shed %d, want >= %d", shed, *minShed)
	check(coal >= *minCoal, "server coalesced %d, want >= %d", coal, *minCoal)
	if failed {
		os.Exit(1)
	}
}

// fire issues one request and classifies its outcome. hangup > 0 emulates
// a client that gives up mid-call: the request context is cancelled after
// that delay, which tears down the connection and must cancel the scan
// server-side.
func fire(client *http.Client, url string, hangup time.Duration) (outcome string, latency time.Duration, fiveXX bool) {
	ctx := context.Background()
	if hangup > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hangup)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "net_error", 0, false
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	latency = time.Since(t0)
	if err != nil {
		switch {
		case hangup > 0 && ctx.Err() != nil:
			return "canceled", latency, false
		case context.Cause(ctx) != nil:
			return "canceled", latency, false
		default:
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return "client_timeout", latency, false
			}
			// http.Client wraps its own Timeout the same way.
			return "client_timeout_or_net_error", latency, false
		}
	}
	defer func() { _ = resp.Body.Close() }()
	fiveXX = resp.StatusCode >= 500

	if resp.StatusCode == http.StatusOK {
		var cands []server.Candidate
		if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil || len(cands) == 0 {
			return "bad_envelope", latency, fiveXX
		}
		return "ok", latency, fiveXX
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
		return "bad_envelope", latency, fiveXX
	}
	return env.Error.Code, latency, fiveXX // overloaded, timeout, bad_request, internal, ...
}

// collector accumulates outcomes under one mutex; the hot path is the
// network, not this lock.
type collector struct {
	mu       sync.Mutex
	outcomes map[string]int
	okLat    []time.Duration
	fiveXX   int
}

func (c *collector) record(outcome string, lat time.Duration, fiveXX bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outcomes[outcome]++
	if outcome == "ok" {
		c.okLat = append(c.okLat, lat)
	}
	if fiveXX {
		c.fiveXX++
	}
}

// percentile returns the p-quantile (0..1) of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func report(col *collector, offered int, rate float64, elapsed time.Duration, before, after server.Stats) {
	col.mu.Lock()
	defer col.mu.Unlock()
	sort.Slice(col.okLat, func(i, j int) bool { return col.okLat[i] < col.okLat[j] })

	log.Printf("offered %.1f req/s for %s → %d requests", rate, elapsed.Round(time.Millisecond), offered)
	keys := make([]string, 0, len(col.outcomes))
	for k := range col.outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := "outcomes:"
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%d", k, col.outcomes[k])
	}
	log.Print(line)
	log.Printf("ok latency: p50=%s p90=%s p99=%s p999=%s (n=%d)",
		percentile(col.okLat, 0.50).Round(time.Microsecond),
		percentile(col.okLat, 0.90).Round(time.Microsecond),
		percentile(col.okLat, 0.99).Round(time.Microsecond),
		percentile(col.okLat, 0.999).Round(time.Microsecond),
		len(col.okLat))
	log.Printf("server deltas: shed=%d coalesced=%d canceled=%d timeouts~(see /metrics) brownout_entered=%d brownout_exited=%d degraded_at_end=%v",
		after.Shed-before.Shed, after.Coalesced-before.Coalesced, after.Canceled-before.Canceled,
		after.BrownoutEntered-before.BrownoutEntered, after.BrownoutExited-before.BrownoutExited, after.Degraded)
}

// servingRow is one row of BENCH_serving.json's "serving" section.
type servingRow struct {
	Bench    string  `json:"bench"` // always "serving"
	Label    string  `json:"label"`
	RateHz   float64 `json:"offered_rate_hz"`
	Duration float64 `json:"duration_sec"`
	Requests int     `json:"requests"`

	OK          int `json:"ok"`
	Overloaded  int `json:"overloaded"`
	Timeouts    int `json:"timeouts"`
	BadRequest  int `json:"bad_request"`
	Canceled    int `json:"canceled"`
	Internal    int `json:"internal"`
	BadEnvelope int `json:"bad_envelope"`
	NetErrors   int `json:"net_errors"`

	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`

	CompletedRateHz float64 `json:"completed_rate_hz"`
	ShedRate        float64 `json:"shed_rate"`
	CoalesceRate    float64 `json:"coalesce_rate"`
	BrownoutEntered uint64  `json:"brownout_entered"`
	DegradedAtEnd   bool    `json:"degraded_at_end"`

	Note string `json:"note"`
}

func writeBenchRow(path, label string, rate float64, elapsed time.Duration, selfServe bool, col *collector, before, after server.Stats) error {
	col.mu.Lock()
	defer col.mu.Unlock()
	sort.Slice(col.okLat, func(i, j int) bool { return col.okLat[i] < col.okLat[j] })
	total := 0
	for _, n := range col.outcomes {
		total += n
	}
	note := "open-loop Poisson arrivals over a real HTTP connection (loopback-class latency unless pointed at a remote host)"
	if selfServe {
		note = "open-loop Poisson arrivals, in-process server over loopback — measures the serving stack, not a network fabric"
	}
	ms := func(p float64) float64 { return float64(percentile(col.okLat, p)) / float64(time.Millisecond) }
	row := servingRow{
		Bench: "serving", Label: label, RateHz: rate, Duration: elapsed.Seconds(), Requests: total,
		OK:          col.outcomes["ok"],
		Overloaded:  col.outcomes["overloaded"],
		Timeouts:    col.outcomes["timeout"] + col.outcomes["client_timeout"],
		BadRequest:  col.outcomes["bad_request"],
		Canceled:    col.outcomes["canceled"],
		Internal:    col.outcomes["internal"],
		BadEnvelope: col.outcomes["bad_envelope"],
		NetErrors:   col.outcomes["net_error"] + col.outcomes["client_timeout_or_net_error"],
		P50Ms:       ms(0.50), P90Ms: ms(0.90), P99Ms: ms(0.99), P999Ms: ms(0.999),
		CompletedRateHz: float64(len(col.okLat)) / elapsed.Seconds(),
		ShedRate:        rateOf(after.Shed-before.Shed, total),
		CoalesceRate:    rateOf(after.Coalesced-before.Coalesced, total),
		BrownoutEntered: after.BrownoutEntered - before.BrownoutEntered,
		DegradedAtEnd:   after.Degraded,
		Note:            note,
	}
	return benchio.UpdateSection(path, "serving", appendExisting(path, row))
}

// appendExisting collects the current "serving" rows plus the new one, so
// successive loadgen runs accumulate a trajectory (nominal + overload)
// instead of each run erasing the other's row. Rows with the same label
// are replaced.
func appendExisting(path string, row servingRow) []servingRow {
	rows := []servingRow{}
	if b, err := os.ReadFile(path); err == nil {
		var all []servingRow
		if json.Unmarshal(b, &all) == nil {
			for _, r := range all {
				if r.Bench == "serving" && r.Label != row.Label {
					rows = append(rows, r)
				}
			}
		}
	}
	return append(rows, row)
}

func rateOf(n uint64, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// discoverItems asks /healthz how many catalog items the target serves, so
// the Zipf seed distribution covers exactly the valid id range.
func discoverItems(client *http.Client, base string) int {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		log.Fatalf("target unreachable: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var h struct {
		Items int `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Items <= 0 {
		log.Fatalf("cannot discover catalog size from /healthz (err %v, items %d)", err, h.Items)
	}
	return h.Items
}

func scrapeStats(client *http.Client, base string) server.Stats {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		log.Fatalf("scraping /v1/stats: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatalf("decoding /v1/stats: %v", err)
	}
	return st
}

// startSelfServer boots the full serving stack in-process on a loopback
// listener: tiny corpus, one-epoch model, real HTTP — the whole hardening
// chain under test with no orchestration.
func startSelfServer(corpusName string, seed uint64, cfg server.Config) (base string, items int, shutdown func()) {
	cc, err := experiments.CorpusByName(corpusName)
	if err != nil {
		log.Fatal(err)
	}
	if seed != 0 {
		cc.Seed = seed
	}
	ds, err := corpus.Generate(cc)
	if err != nil {
		log.Fatal(err)
	}
	opt := sgns.Defaults()
	opt.Epochs = 1
	m, err := sisg.Train(ds.Dict, ds.Sessions, sisg.VariantSISGFUD, opt)
	if err != nil {
		log.Fatal(err)
	}
	s := server.NewWithHolder(ds, model.NewHolder(sisg.NewModelSnapshot(m, 1)), cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("self-serve: %s corpus, %d items, listening on %s", cc.Name, ds.Dict.NumItems, ln.Addr())
	return "http://" + ln.Addr().String(), int(ds.Dict.NumItems), func() { _ = srv.Close() }
}
