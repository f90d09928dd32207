package sgns

import (
	"math"
	"testing"

	"sisg/internal/emb"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

func TestNoiseWeights(t *testing.T) {
	w := NoiseWeights([]uint64{10, 5, 15, 0, 8}, 1.0)
	if w[0] != 10 || w[2] != 15 {
		t.Fatalf("NoiseWeights = %v", w)
	}
	if w[3] != 0 {
		t.Fatalf("zero-count weight = %v, want 0", w[3])
	}
}

func TestSubsampleKeepProbs(t *testing.T) {
	d := vocab.NewDict(8)
	d.Add("item_0", vocab.KindItem, 10)
	d.Add("item_1", vocab.KindItem, 5)
	d.Add("leaf_category_7", vocab.KindSI, 15)
	d.Add("brand_3", vocab.KindSI, 2)
	d.Add("ut_F_21-25_p1", vocab.KindUserType, 8)
	counts := make([]uint64, d.Len())
	for i := range counts {
		counts[i] = d.Count(int32(i))
	}
	p := KeepProbs(d, counts, d.TotalTokens(), 1e-2, 0.5)
	for i, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("keep prob %d out of [0,1]: %v", i, v)
		}
	}
	// Hotter tokens keep less (same kind): item_0 (10) vs item_1 (5).
	if p[0] >= p[1] {
		t.Fatalf("hot item keep %v !< cold item keep %v", p[0], p[1])
	}
	// SIBoost halves non-item keep probs: brand_3 has f = 2/40, so
	// keep = (sqrt(t/f) + t/f) × 0.5.
	f := 2.0 / 40.0
	want := float32((math.Sqrt(1e-2/f) + 1e-2/f) * 0.5)
	if diff := p[3] - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("SI boost keep = %v, want %v", p[3], want)
	}
}

func TestPair(t *testing.T) {
	v := []float32{1, 0}
	pos := []float32{0.5, 0}
	neg := []float32{0, 1}
	grad := Pair(v, make([]float32, 2), pos, [][]float32{neg}, 0.1)
	if !(grad[0] > 0) || !(pos[0] > 0.5) {
		t.Fatalf("positive step did not pull v and pos together: grad %v pos %v", grad, pos)
	}
	if !(neg[0] < 0) || !(grad[1] < 0) {
		t.Fatalf("negative step did not push v and neg apart: grad %v neg %v", grad, neg)
	}

	// A NaN positive is a diverged row: the whole pair is skipped.
	nan := float32(math.NaN())
	neg = []float32{0, 1}
	grad = Pair(v, []float32{7, 7}, []float32{nan, 0}, [][]float32{neg}, 0.1)
	if grad[0] != 0 || grad[1] != 0 || neg[0] != 0 || neg[1] != 1 {
		t.Fatalf("NaN positive not skipped: grad %v neg %v", grad, neg)
	}
	// With no positive (the degraded path), only the negatives train, and
	// a NaN negative is skipped without stopping the rest.
	neg = []float32{0, 1}
	grad = Pair(v, []float32{7, 7}, nil, [][]float32{{nan, 0}, neg}, 0.1)
	if !(neg[0] < 0) || grad[0] != 0 || !(grad[1] < 0) {
		t.Fatalf("degraded pair: grad %v neg %v", grad, neg)
	}

	t.Run("MatchesSequential", pairMatchesSequential)
}

// pairSeq is Pair as a plain sequence of steps, each dotting its row just
// before updating it: the reference Pair must match bit for bit.
func pairSeq(v, grad, pos []float32, negs [][]float32, lr float32) []float32 {
	vecmath.Zero(grad)
	step := func(label float32, c []float32) bool {
		dot := vecmath.Dot(v, c)
		if dot != dot {
			return false
		}
		g := (label - vecmath.Sigmoid(dot)) * lr
		vecmath.Axpy(g, c, grad)
		vecmath.Axpy(g, v, c)
		return true
	}
	if pos != nil && !step(1, pos) {
		return grad
	}
	for _, c := range negs {
		step(0, c)
	}
	return grad
}

// pairMatchesSequential checks Pair against pairSeq on random cases:
// every dim from 1 to 130 (crossing the kernels' 8-wide, 4-lane and tail
// boundaries), with or without a positive, 0–25 negatives drawn with
// repeats from a small matrix (so rows recur, and a negative may be the
// positive), and rows or inputs poisoned with NaN.
func pairMatchesSequential(t *testing.T) {
	r := rng.New(5)
	for dim := 1; dim <= 130; dim++ {
		for trial := 0; trial < 12; trial++ {
			const rows = 8
			out := make([]float32, rows*dim)
			for i := range out {
				out[i] = (r.Float32()*2 - 1) * 3
			}
			v := make([]float32, dim)
			for i := range v {
				v[i] = (r.Float32()*2 - 1) * 3
			}
			poisoned := -1
			switch r.Intn(6) {
			case 0:
				poisoned = r.Intn(rows)
				out[poisoned*dim+r.Intn(dim)] = float32(math.NaN())
			case 1:
				v[r.Intn(dim)] = float32(math.NaN())
			}
			posID := -1
			if r.Intn(4) != 0 {
				posID = r.Intn(rows)
			}
			ids := make([]int, r.Intn(26))
			for i := range ids {
				ids[i] = r.Intn(rows)
			}
			lr := 0.5 * r.Float32()

			run := func(pair func(v, grad, pos []float32, negs [][]float32, lr float32) []float32) (grad, m []float32) {
				m = append([]float32(nil), out...)
				row := func(i int) []float32 { return m[i*dim : (i+1)*dim : (i+1)*dim] }
				var pos []float32
				if posID >= 0 {
					pos = row(posID)
				}
				negs := make([][]float32, len(ids))
				for i, id := range ids {
					negs[i] = row(id)
				}
				grad = pair(v, make([]float32, dim), pos, negs, lr)
				return grad, m
			}
			gotGrad, gotOut := run(Pair)
			wantGrad, wantOut := run(pairSeq)
			for i := range wantOut {
				if !sameBits(gotOut[i], wantOut[i]) {
					t.Fatalf("dim=%d trial=%d pos=%d negs=%v poisoned=%d: out[%d] = %x, want %x",
						dim, trial, posID, ids, poisoned, i, math.Float32bits(gotOut[i]), math.Float32bits(wantOut[i]))
				}
			}
			for i := range wantGrad {
				if !sameBits(gotGrad[i], wantGrad[i]) {
					t.Fatalf("dim=%d trial=%d pos=%d negs=%v poisoned=%d: grad[%d] = %x, want %x",
						dim, trial, posID, ids, poisoned, i, math.Float32bits(gotGrad[i]), math.Float32bits(wantGrad[i]))
				}
			}
		}
	}
}

// sameBits compares two floats bit for bit, any two NaNs counting as equal.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// BenchmarkPair times one SGNS update at the batch benchmark's shape: dim
// 32, 5 negatives, the positive and negatives drawn from a 30k-row output
// matrix, so rows mostly miss the cache as they do in training.
func BenchmarkPair(b *testing.B) {
	const rows, dim, negatives = 30000, 32, 5
	r := rng.New(7)
	m := emb.NewModel(rows, dim, r)
	for i := range m.Out.Data() {
		m.Out.Data()[i] = (r.Float32()*2 - 1) * 0.1
	}
	grad := make([]float32, dim)
	negs := make([][]float32, negatives)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range negs {
			negs[k] = m.Out.Row(int32(r.Intn(rows)))
		}
		v := m.In.Row(int32(r.Intn(rows)))
		vecmath.Add(Pair(v, grad, m.Out.Row(int32(r.Intn(rows))), negs, 0.025), v)
	}
}
