package sgns

import (
	"math"
	"testing"

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
}
