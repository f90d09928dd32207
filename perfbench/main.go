// Command perfbench is the repository's pipeline benchmark: one binary that
// drives the public APIs of corpus, sisg, sgns, dist, graph, knn, model and
// server through four workloads and prints one JSON result line.
//
//	bash perfbench/run.sh --workload train-batch --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries every end-to-end metric, measured with
// tracing off. With --trace 1 the workload runs traced, and the result
// carries every per-layer metric: self times and counts taken from spans
// recorded around each call into a layer from this package, plus the tracing
// overhead (the headline metric traced against untraced) and how the sum of
// layer self times compares with the end-to-end time.
//
// The last line of standard output is the result object; an env block
// describing the machine, toolchain, commit and inputs is printed on the line
// before it. A failed output check prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sisg/internal/corpus"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object (the last line of stdout).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the command-line inputs every workload receives.
type params struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload hands back: both metric families (the caller
// prints the one the mode asks for), operation counts and check failures.
type outcome struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd names the end-to-end metrics every workload reports (serve-swap
// adds ingest_sessions_per_s and item_freshness_ms).
var endToEnd = []string{
	"setup_s", "train_pairs_per_s", "model_ready_s", "hr_at_20",
	"latency_p50_ms", "capacity_rps", "heap_mb",
}

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them, 0 for a layer the workload does not exercise.
var perLayer = [][2]string{
	{"corpus.generate_s", "s"}, {"corpus.live_next_us", "us"},
	{"sisg.enrich_s", "s"}, {"sisg.admit_us", "us"}, {"sisg.stream_train_us", "us"},
	{"sisg.publish_ms", "ms"}, {"sisg.coldstart_us", "us"}, {"sisg.seeded_items", "count"},
	{"vocab.admitted_rows", "count"},
	{"sgns.train_s", "s"}, {"sgns.pairs", "count"}, {"sgns.updates", "count"}, {"sgns.tokens", "count"},
	{"sgns.live_pairs", "count"},
	{"graph.partition_s", "s"},
	{"dist.train_s", "s"}, {"dist.pairs", "count"}, {"dist.remote_pairs", "count"}, {"dist.remote_ratio", "ratio"},
	{"dist.wire_bytes_per_remote_pair", "bytes"}, {"dist.retries", "count"}, {"dist.degraded", "count"},
	{"dist.hot_syncs", "count"},
	{"knn.index_build_ms", "ms"}, {"knn.ivf_build_ms", "ms"}, {"knn.query_us_p50", "us"}, {"knn.query_us_p99", "us"},
	{"knn.tiles_per_query", "count"},
	{"model.publish_us", "us"}, {"model.acquire_ns", "ns"}, {"model.live_generations_max", "count"},
	{"server.handler_us_p50", "us"}, {"server.handler_us_p99", "us"}, {"server.alloc_bytes_per_req", "bytes"},
	{"server.cache_hit_ratio", "ratio"}, {"server.cache_lookups", "count"},
	{"server.retrieval_scan_s", "s"}, {"server.retrieval_cache_s", "s"},
	{"server.coalesced", "count"}, {"server.shed", "count"}, {"server.canceled", "count"},
	{"server.timeouts", "count"}, {"server.brownout_entered", "count"},
	{"http.roundtrip_us_p50", "us"}, {"http.roundtrip_us_p99", "us"},
	{"loadgen.open_latency_p50_ms", "ms"}, {"loadgen.open_latency_p99_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"}, {"loadgen.backlog_max", "count"},
	{"self.bench_s", "s"}, {"self.corpus_s", "s"}, {"self.sisg_s", "s"}, {"self.sgns_s", "s"}, {"self.graph_s", "s"},
	{"self.dist_s", "s"}, {"self.knn_s", "s"}, {"self.model_s", "s"}, {"self.server_s", "s"}, {"self.http_s", "s"},
	{"trace.layer_sum_s", "s"}, {"trace.e2e_s", "s"}, {"trace.layer_sum_ratio", "ratio"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

// complete checks the family a run prints against its list: every
// end-to-end metric present, or every per-layer one present (0 when not
// exercised) and nothing unlisted.
func (o *outcome) complete(trace bool) error {
	if !trace {
		for _, n := range endToEnd {
			if _, ok := o.e2e[n]; !ok {
				return fmt.Errorf("end-to-end metric %s missing", n)
			}
		}
		return nil
	}
	known := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		known[m[0]] = true
		if _, ok := o.layers[m[0]]; !ok {
			o.layers[m[0]] = metric{0, m[1]}
		}
	}
	for n := range o.layers {
		if !known[n] {
			return fmt.Errorf("per-layer metric %s is not listed", n)
		}
	}
	return nil
}

var workloads = map[string]func(p params, out *outcome) error{
	"train-batch": runTrainBatch,
	"train-dist":  runTrainDist,
	"serve-scan":  runServeScan,
	"serve-swap":  runServeSwap,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: train-batch, train-dist, serve-scan or serve-swap")
		seed     = flag.Uint64("seed", 1, "workload seed: training RNG, request streams and the live session stream")
		seconds  = flag.Int("seconds", 12, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	p := params{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	out := newOutcome()
	err := fn(p, out)
	if err == nil {
		err = out.complete(p.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.workload, err)
		return 1
	}
	for _, pr := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", pr)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if p.trace {
		res.Metrics = out.layers
	}
	env, err := json.Marshal(envBlock(p))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: env: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Printf("env %s\n%s\n", env, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// envBlock stamps a result with what it was measured on.
func envBlock(p params) map[string]interface{} {
	c := corpus.Sim25K()
	return map[string]interface{}{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"corpus":        c.Name,
		"corpus_seed":   c.Seed,
		"workload":      p.workload,
		"workload_seed": p.seed,
		"seconds":       p.seconds.Seconds(),
		"trace":         p.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is `git describe --always --dirty` of the working directory, or
// "unknown" outside a git checkout. The search for a repository stops at the
// working directory's parent, so a checkout that is not a repository never
// reports an enclosing one.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// quantile returns the q-quantile of xs by nearest rank on a sorted copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowRate is the median over the whole windows of length w in [0, d) of
// the events per second completed in each; done holds each event's
// completion time from the start. A host stall then moves one window, not
// the figure.
func windowRate(done []time.Duration, d, w time.Duration) float64 {
	rates := make([]float64, int(d/w))
	for _, t := range done {
		if i := int(t / w); i < len(rates) {
			rates[i] += 1 / w.Seconds()
		}
	}
	return median(rates)
}

// heapMB is the live Go heap after a forced collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
