package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/dist"
	"sisg/internal/emb"
	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

const (
	variantName = "SISG-F-U-D"
	itemWindow  = 10   // Table III window, in items
	testFrac    = 0.08 // Table III split
	hrK         = 20
	setupReps   = 3 // set-up repetitions per run; setup_s is their median
)

// table3 is the Table III input: the Sim25K corpus and its next-item split.
type table3 struct {
	ds    *corpus.Dataset
	split *corpus.Split
	v     sisg.Variant
}

// newTable3 generates Sim25K and its split. The corpus is the fixed Sim25K
// dataset; the workload seed varies training and traffic, not the data, so
// HR@20 moves with the model and not with the test set.
func newTable3() (*table3, error) {
	v, err := sisg.VariantByName(variantName)
	if err != nil {
		return nil, err
	}
	ds, err := corpus.Generate(corpus.Sim25K())
	if err != nil {
		return nil, err
	}
	return &table3{ds: ds, split: ds.SplitNextItem(testFrac), v: v}, nil
}

// setupTable3 runs newTable3 setupReps times and returns the last table
// with the median set-up time.
func setupTable3(tr *tracer) (*table3, time.Duration, error) {
	var t *table3
	var times []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if t, err = newTable3(); err != nil {
			return nil, 0, err
		}
		d := time.Since(start)
		tr.record("corpus.generate", -1, int64(i), start, d)
		times = append(times, float64(d))
	}
	return t, time.Duration(median(times)), nil
}

// trainOptions is the one-epoch Table III training configuration.
//
// Batch training runs one worker. Two Hogwild workers on a 2-vCPU Xeon VM
// were bimodal from run to run (2.2-2.4M against 3.0M pairs/s in ten runs,
// flat within each run), while one worker measured 2.78-2.83M pairs/s in
// every run, so a kernel change reads the same on every run.
func trainOptions(seed uint64, v sisg.Variant) sgns.Options {
	return batchOptions(seed, v, itemWindow)
}

// servingOptions trains the served model the way sisg-server does (the
// default window), for one epoch.
func servingOptions(seed uint64, v sisg.Variant) sgns.Options {
	return batchOptions(seed, v, sgns.Defaults().Window)
}

func batchOptions(seed uint64, v sisg.Variant, window int) sgns.Options {
	base := sgns.Defaults()
	base.Epochs = 1
	base.Seed = seed
	base.Workers = 1
	return sisg.TrainOptions(base, v, window)
}

// rep is one pipeline repetition's measurements.
type rep struct {
	train, ready, enrich time.Duration
	partition            time.Duration
	index, ivf           time.Duration
	rates                []float64 // pairs/s over each progress interval of training
	hr                   float64
	queryLat             []float64 // ns per matching call of evalBatch seeds
	queryRate            float64   // calls/s over the evaluation
	tiles                float64   // scan tiles per call
	failed               int64
	sgnsStats            sgns.Stats
	distStats            dist.Stats
}

// trainer turns enriched sequences into an embedding model and records its
// own layer spans under root.
type trainer func(seqs [][]int32, root int, req int64, r *rep) (*emb.Model, error)

// buildRep runs the sessions-to-servable-snapshot part of a pipeline over
// the training split: enrich, train, item index, IVF layer, snapshot.
func buildRep(t *table3, train trainer, tr *tracer, root int, req int64) (*rep, model.Snapshot, error) {
	r := &rep{}
	start := time.Now()
	sp := tr.begin("sisg.enrich", root, req)
	seqs := sisg.Enrich(t.ds.Dict, t.split.Train, t.v)
	tr.end(sp)
	r.enrich = time.Since(start)

	m, err := train(seqs, root, req, r)
	if err != nil {
		return nil, nil, err
	}
	sm := &sisg.Model{Variant: t.v, Dict: t.ds.Dict, Emb: m}

	t0 := time.Now()
	sp = tr.begin("knn.index_build", root, req)
	ix := sm.ItemIndex()
	tr.end(sp)
	r.index = time.Since(t0)
	t0 = time.Now()
	sp = tr.begin("knn.ivf_build", root, req)
	ix.IVFClusters()
	tr.end(sp)
	r.ivf = time.Since(t0)
	sp = tr.begin("sisg.snapshot", root, req)
	snap := sisg.NewModelSnapshot(sm, 1)
	tr.end(sp)
	r.ready = time.Since(start)
	return r, snap, nil
}

// pipelineRep builds a snapshot and evaluates HR@20 on the held-out cases
// through its Similar.
func pipelineRep(t *table3, train trainer, tr *tracer, req int64) (*rep, model.Snapshot, error) {
	root := tr.begin("bench.build", -1, req)
	r, snap, err := buildRep(t, train, tr, root, req)
	tr.end(root)
	if err != nil {
		return nil, nil, err
	}
	evaluate(snap, t.split.Test, tr, req, r)
	return r, snap, nil
}

const (
	// evalWarm is how long untimed queries run before the timed
	// evaluation: the second CPU sat idle through single-worker training,
	// and a host takes this long to give an idle vCPU its full share again.
	evalWarm = time.Second
	// evalFor is how long the timed queries run: one pass over the held-out
	// cases scores HR@20, and further passes add latency samples. Two
	// seconds left the call rate spreading 0.22 from run to run on a shared
	// host, whose speed drifts over seconds.
	evalFor = 4 * time.Second
	// evalWindow is the window the call rate is counted over (see
	// windowRate).
	evalWindow = 500 * time.Millisecond
	// evalBatch is the number of seeds per Snapshot.Similar call: a matching
	// request for a user's recent items. A one-seed call lasts about as long
	// as an idle vCPU takes to wake on a shared host, so its time depended on
	// whether the second vCPU joined the scan, in proportions that changed
	// from run to run; a sixteen-seed call keeps both scanning for most of
	// it.
	evalBatch = 16
)

// evaluate computes HR@20 over the test cases, timing every Snapshot.Similar
// call. One caller makes the calls in turn, each with the next evalBatch
// held-out queries, so a call is timed alone while the index fans its scan
// out over every CPU.
func evaluate(snap model.Snapshot, tests []corpus.TestCase, tr *tracer, req int64, r *rep) {
	ctx := context.Background()
	seeds := make([]int32, evalBatch)
	call := func(first int) ([][]knn.Result, error) {
		for j := range seeds {
			seeds[j] = tests[(first+j)%len(tests)].Query
		}
		return snap.Similar(ctx, seeds, knn.Options{K: hrK})
	}
	warmUntil := time.Now().Add(evalWarm)
	for first := 0; time.Now().Before(warmUntil); first += evalBatch {
		_, _ = call(first) // warm-up only
	}

	tiles0 := snap.Index().TilesScanned()
	root := tr.begin("bench.eval", -1, req)
	var done []time.Duration
	hits := 0
	start := time.Now()
	for first := 0; first < len(tests) || time.Since(start) < evalFor; first += evalBatch {
		t0 := time.Now()
		rs, err := call(first)
		took := time.Since(t0)
		tr.record("knn.query", root, req, t0, took)
		r.queryLat = append(r.queryLat, float64(took))
		if err != nil {
			r.failed++
			continue
		}
		done = append(done, time.Since(start))
		for j := range seeds {
			if i := first + j; i < len(tests) && hit(rs[j], tests[i].Target) {
				hits++
			}
		}
	}
	tr.end(root)
	r.queryRate = windowRate(done, evalFor, evalWindow)
	r.tiles = float64(snap.Index().TilesScanned()-tiles0) / float64(len(r.queryLat))
	r.hr = float64(hits) / float64(len(tests))
}

func hit(rs []knn.Result, target int32) bool {
	for _, x := range rs {
		if x.ID == target {
			return true
		}
	}
	return false
}

// repeat runs pipeline repetitions while another one fits in the measured
// phase (at least one), returning them in order with the last snapshot.
func repeat(p params, t *table3, train trainer, tr *tracer) ([]*rep, model.Snapshot, error) {
	var reps []*rep
	var snap model.Snapshot
	start := time.Now()
	var last time.Duration
	for len(reps) == 0 || time.Since(start)+last <= p.seconds {
		t0 := time.Now()
		r, s, err := pipelineRep(t, train, tr, int64(len(reps)))
		if err != nil {
			return nil, nil, err
		}
		last = time.Since(t0)
		reps, snap = append(reps, r), s
	}
	return reps, snap, nil
}

// progressEvery is the training-throughput sampling interval.
const progressEvery = 250 * time.Millisecond

// sampleRates points a training run's progress reports at r.rates. The
// final report covers a partial interval and is left out.
func sampleRates(opt *sgns.Options, r *rep) {
	var mu sync.Mutex
	opt.ProgressEvery = progressEvery
	opt.Progress = func(p sgns.Progress) {
		if p.Done {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		r.rates = append(r.rates, p.PairsPerSec)
	}
}

func batchTrainer(opt sgns.Options, dict *corpus.Dict, tr *tracer) trainer {
	return func(seqs [][]int32, root int, req int64, r *rep) (*emb.Model, error) {
		sampleRates(&opt, r)
		t0 := time.Now()
		sp := tr.begin("sgns.train", root, req)
		m, st, err := sgns.Train(dict.Dict, seqs, opt)
		tr.end(sp)
		r.train = time.Since(t0)
		r.sgnsStats = st
		return m, err
	}
}

// distTrainer trains one epoch with dist.DefaultOptions (its own window,
// ATNS hot replication on) over the TCP transport, one simulated machine per
// CPU, partitioned by HBGP over the training sessions.
func distTrainer(seed uint64, t *table3, tr *tracer) trainer {
	return func(seqs [][]int32, root int, req int64, r *rep) (*emb.Model, error) {
		w := runtime.NumCPU()
		t0 := time.Now()
		sp := tr.begin("graph.partition", root, req)
		part, _, err := dist.PartitionForDataset(t.ds, t.split.Train, w)
		tr.end(sp)
		r.partition = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		opt := dist.DefaultOptions(w)
		opt.Epochs = 1
		opt.Seed = seed
		opt.Options = sisg.TrainOptions(opt.Options, t.v, opt.Window)
		opt.Transport = dist.TransportTCP
		sampleRates(&opt.Options, r)
		t0 = time.Now()
		sp = tr.begin("dist.train", root, req)
		m, st, err := dist.Train(t.ds.Dict.Dict, seqs, part, opt)
		tr.end(sp)
		r.train = time.Since(t0)
		r.distStats = st
		return m, err
	}
}

func runTrainBatch(p params, out *outcome) error {
	return runTrain(p, out, func(t *table3, tr *tracer) trainer {
		return batchTrainer(trainOptions(p.seed, t.v), t.ds.Dict, tr)
	})
}

func runTrainDist(p params, out *outcome) error {
	return runTrain(p, out, func(t *table3, tr *tracer) trainer {
		return distTrainer(p.seed, t, tr)
	})
}

// runTrain measures a training workload on the Table III training split:
// set-up, then repeated pipelines. A traced run records the same set-up and
// pipelines with spans instead, and prices the tracing by evaluating the
// last snapshot once more, untraced.
func runTrain(p params, out *outcome, newTrainer func(*table3, *tracer) trainer) error {
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	t, setup, err := setupTable3(tr)
	if err != nil {
		return err
	}
	reps, snap, err := repeat(p, t, newTrainer(t, tr), tr)
	if err != nil {
		return err
	}
	trainE2E(t, reps, setup, out)
	// The heap is measured with the servable snapshot still live.
	out.e2e["heap_mb"] = metric{heapMB(), "MB"}
	runtime.KeepAlive(snap)
	if !p.trace {
		return nil
	}

	untraced := &rep{}
	evaluate(snap, t.split.Test, nil, -1, untraced)
	out.layers["corpus.generate_s"] = metric{seconds(setup), "s"}
	trainLayers(reps, tr, out)
	p50 := func(r *rep) float64 { return quantile(r.queryLat, 0.5) }
	return reportLayers(tr, p, out, p50(reps[len(reps)-1]), p50(untraced))
}

// trainRate is the training throughput of a set of repetitions: the median
// pairs/s over all their progress intervals, so a short host stall moves it
// by one interval, not one repetition.
func trainRate(reps []*rep) float64 {
	var rates []float64
	for _, r := range reps {
		rates = append(rates, r.rates...)
	}
	return median(rates)
}

func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// trainE2E reports the end-to-end metrics of a training workload and checks
// its outputs.
func trainE2E(t *table3, reps []*rep, setup time.Duration, out *outcome) {
	var lat []float64
	for i, r := range reps {
		lat = append(lat, r.queryLat...)
		out.attempted += int64(len(r.queryLat)) + 1
		out.failed += r.failed
		random := float64(hrK) / float64(t.ds.Dict.NumItems)
		out.check(r.hr > random, "repetition %d: HR@%d %.4f does not beat random ranking %.4f", i, hrK, r.hr, random)
		if st := r.distStats; st.Workers > 0 {
			out.check(st.Pairs == st.LocalPairs+st.RemotePairs+st.Degraded,
				"repetition %d: dist pairs %d != local %d + remote %d + degraded %d", i, st.Pairs, st.LocalPairs, st.RemotePairs, st.Degraded)
			out.check(st.DroppedPairs == 0, "repetition %d: dist dropped %d pairs", i, st.DroppedPairs)
		}
	}
	out.check(out.failed == 0, "%d matching queries failed", out.failed)
	out.e2e["setup_s"] = metric{seconds(setup), "s"}
	out.e2e["train_pairs_per_s"] = metric{trainRate(reps), "pairs/s"}
	out.e2e["model_ready_s"] = metric{medianOf(reps, func(r *rep) float64 { return seconds(r.ready) }), "s"}
	out.e2e["hr_at_20"] = metric{medianOf(reps, func(r *rep) float64 { return r.hr }), "ratio"}
	out.e2e["latency_p50_ms"] = metric{quantile(lat, 0.50) / 1e6, "ms"}
	out.e2e["capacity_rps"] = metric{medianOf(reps, func(r *rep) float64 { return r.queryRate }), "req/s"}
}

// trainLayers reports the per-layer metrics of a traced training run.
func trainLayers(reps []*rep, tr *tracer, out *outcome) {
	last := reps[len(reps)-1]
	out.layers["sisg.enrich_s"] = metric{medianOf(reps, func(r *rep) float64 { return seconds(r.enrich) }), "s"}
	out.layers["knn.index_build_ms"] = metric{medianOf(reps, func(r *rep) float64 { return millis(r.index) }), "ms"}
	out.layers["knn.ivf_build_ms"] = metric{medianOf(reps, func(r *rep) float64 { return millis(r.ivf) }), "ms"}
	q := tr.durations("knn.query")
	out.layers["knn.query_us_p50"] = metric{quantile(q, 0.50) / 1e3, "us"}
	out.layers["knn.query_us_p99"] = metric{quantile(q, 0.99) / 1e3, "us"}
	out.layers["knn.tiles_per_query"] = metric{last.tiles, "count"}
	if st := last.distStats; st.Workers > 0 {
		out.layers["graph.partition_s"] = metric{medianOf(reps, func(r *rep) float64 { return seconds(r.partition) }), "s"}
		out.layers["dist.train_s"] = metric{medianOf(reps, func(r *rep) float64 { return seconds(r.train) }), "s"}
		out.layers["dist.pairs"] = metric{float64(st.Pairs), "count"}
		out.layers["dist.remote_pairs"] = metric{float64(st.RemotePairs), "count"}
		out.layers["dist.remote_ratio"] = metric{st.RemoteFraction(), "ratio"}
		if st.RemotePairs > 0 {
			out.layers["dist.wire_bytes_per_remote_pair"] = metric{float64(st.WireBytesSent) / float64(st.RemotePairs), "bytes"}
		}
		out.layers["dist.retries"] = metric{float64(st.Retries), "count"}
		out.layers["dist.degraded"] = metric{float64(st.Degraded), "count"}
		out.layers["dist.hot_syncs"] = metric{float64(st.HotSyncs), "count"}
		return
	}
	st := last.sgnsStats
	out.layers["sgns.train_s"] = metric{medianOf(reps, func(r *rep) float64 { return seconds(r.train) }), "s"}
	out.layers["sgns.pairs"] = metric{float64(st.Pairs), "count"}
	out.layers["sgns.updates"] = metric{float64(st.Updates), "count"}
	out.layers["sgns.tokens"] = metric{float64(st.Tokens), "count"}
}
