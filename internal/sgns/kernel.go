package sgns

import (
	"math"

	"sisg/internal/rng"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// The SGNS training core shared by every trainer: the batch and live
// trainers here, the distributed engine's TNS (internal/dist) and the EGES
// baseline (internal/eges), which runs the same update against its
// aggregated input vector H. Each trainer keeps only its choice of rows.

// Pair applies one skip-gram update with input vector v: a label-1 step
// against pos (skipped when pos is nil) and a label-0 step against each
// row of negs, in order. Output rows are updated in place; the gradient
// with respect to v is accumulated into grad (zeroed first) and returned,
// for the caller to apply to v — or, for EGES, to back-propagate through
// its attention. A NaN dot product means a diverged row: a NaN positive
// skips the whole pair and a NaN negative skips that negative, rather than
// poisoning the rest of the model.
//
// The result is bit-identical to taking the steps one at a time, each
// computing its dot product just before its update. Pair computes every
// dot product up front in one vecmath.Dots call instead: v is never
// written, and a row's update comes after its own dot product, so only a
// row drawn a second time (a repeated negative, or a negative equal to
// pos) sees an earlier step's update, and it is dotted again at its turn.
// v and grad must not share memory with the output rows, which are either
// the same row or disjoint.
func Pair(v, grad, pos []float32, negs [][]float32, lr float32) []float32 {
	vecmath.Zero(grad)
	var rowBuf [pairBuf][]float32
	var dotBuf [pairBuf]float32
	rows := rowBuf[:0]
	if pos != nil {
		rows = append(rows, pos)
	}
	rows = append(rows, negs...)
	dots := dotBuf[:]
	if len(rows) > len(dots) {
		dots = make([]float32, len(rows))
	}
	dots = dots[:len(rows)]
	vecmath.Dots(dots, v, rows)
	for k, c := range rows {
		dot := dots[k]
		if repeats(rows[:k], c) {
			dot = vecmath.Dot(v, c)
		}
		label := float32(0)
		if k == 0 && pos != nil {
			if dot != dot {
				return grad
			}
			label = 1
		} else if dot != dot {
			continue
		}
		vecmath.AxpyPair((label-vecmath.Sigmoid(dot))*lr, v, c, grad)
	}
	return grad
}

// pairBuf rows fit Pair's stack buffers: the positive plus the paper's
// production budget of 20 negatives, with room to spare.
const pairBuf = 32

// repeats reports whether output row c is one of rows (the same memory).
func repeats(rows [][]float32, c []float32) bool {
	if len(c) == 0 {
		return false
	}
	for _, r := range rows {
		if &r[0] == &c[0] {
			return true
		}
	}
	return false
}

// KeepProb is the Mikolov subsampling probability of KEEPING one
// occurrence of a token seen count times among total tokens, with
// threshold t: sqrt(t/f) + t/f for relative frequency f, capped at 1.
// Non-item tokens are multiplied by siBoost, the paper's "aggressive" SI
// downsampling (§III-A). Unseen tokens are always kept.
func KeepProb(count, total uint64, t, siBoost float64, kind vocab.Kind) float32 {
	if count == 0 || total == 0 {
		return 1
	}
	f := float64(count) / float64(total)
	keep := math.Sqrt(t/f) + t/f
	if keep > 1 {
		keep = 1
	}
	if kind != vocab.KindItem {
		keep *= siBoost
	}
	return float32(keep)
}

// KeepProbs tabulates KeepProb for every token of dict from per-token
// corpus counts summing to total.
func KeepProbs(dict *vocab.Dict, counts []uint64, total uint64, t, siBoost float64) []float32 {
	p := make([]float32, len(counts))
	for i, c := range counts {
		p[i] = KeepProb(c, total, t, siBoost, dict.KindOf(int32(i)))
	}
	return p
}

// NoiseWeights returns count^alpha per token, the unigram noise
// distribution P_noise(v) ∝ freq(v)^α (§III-C); zero-count tokens get zero
// weight and are never drawn.
func NoiseWeights(counts []uint64, alpha float64) []float64 {
	w := make([]float64, len(counts))
	for i, c := range counts {
		if c > 0 {
			w[i] = math.Pow(float64(c), alpha)
		}
	}
	return w
}

// DecayLR is word2vec's linear learning-rate schedule: lr0 scaled by the
// fraction of the done/total token budget still ahead, floored at
// minFrac.
func DecayLR(lr0, minFrac float32, done, total uint64) float32 {
	f := 1 - float32(float64(done)/float64(total))
	if f < minFrac {
		f = minFrac
	}
	return lr0 * f
}

// Window is word2vec's randomly reduced context window, in units of a
// token stride (SI-enriched sequences place one item every stride tokens).
type Window struct {
	stride, steps int
	directed      bool
}

// NewWindow returns the window rule for a maximum window of size tokens.
// A stride below 1 means 1; directed windows (§II-C) have no left context.
func NewWindow(size, stride int, directed bool) Window {
	if stride < 1 {
		stride = 1
	}
	steps := size / stride
	if steps < 1 {
		steps = 1
	}
	return Window{stride: stride, steps: steps, directed: directed}
}

// Bounds draws the reduced window around position i of an n-token
// sequence, uniform over {stride, 2·stride, …, steps·stride}, and returns
// the inclusive context range [lo, hi]. A window reaching past the left
// edge drops the whole left context, as it does in directed mode.
func (w Window) Bounds(r *rng.RNG, i, n int) (lo, hi int) {
	win := w.stride * (1 + r.Intn(w.steps))
	lo = i - win
	if w.directed || lo < 0 {
		lo = i
	}
	hi = i + win
	if hi >= n {
		hi = n - 1
	}
	return lo, hi
}
