// Package vecmath provides the float32 vector kernels at the heart of
// skip-gram training: dot products, scaled accumulation (axpy), and cosine
// similarity, plus the precomputed sigmoid lookup table word2vec-style
// trainers rely on.
//
// All embedding math in this repository is float32: at billion scale the
// paper's engine is memory-bound, and float32 halves both footprint and
// memory traffic versus float64 with no measurable loss for SGNS.
//
// The training kernels — Dot, Dots, Axpy and AxpyPair — follow one fixed
// arithmetic (the "4-lane schedule"): a dot product accumulates lane j over
// elements i ≡ j (mod 4) in ascending order, reduces the lanes as
// ((s0+s1)+s2)+s3, then adds the tail (i >= len&^3) sequentially; an axpy
// is element-wise multiply-then-add. No kernel contracts a multiply-add
// into an FMA. On amd64 with AVX they run as SIMD assembly (dot_amd64.s)
// that keeps this schedule exactly; elsewhere, and under the purego build
// tag, the pure-Go references in this file run instead. Both produce the
// same bits on every input, which is what lets a trained model's bytes be
// pinned (sgns.TestGoldenBits) independently of the platform's SIMD.
package vecmath

import "math"

// Dot returns the inner product of a and b, with the 4-lane schedule. The
// slices must be the same length.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if useAVX {
		var s [1]float32
		dotsAVX(s[:], a, [][]float32{b})
		return s[0]
	}
	return dotRef(a, b)
}

// Dots computes dst[k] = Dot(v, rows[k]) for every row, in one pass over
// the row list. Every row must have len(v) elements and dst must hold one
// value per row.
func Dots(dst, v []float32, rows [][]float32) {
	if len(dst) != len(rows) {
		panic("vecmath: Dots length mismatch")
	}
	for _, r := range rows {
		if len(r) != len(v) {
			panic("vecmath: Dots length mismatch")
		}
	}
	if useAVX {
		dotsAVX(dst, v, rows)
		return
	}
	dotsRef(dst, v, rows)
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: Axpy length mismatch")
	}
	if useAVX {
		axpyAVX(alpha, x, y)
		return
	}
	axpyRef(alpha, x, y)
}

// AxpyPair is the SGNS row update fused into one pass over the output row
// c: grad += g·c, then c += g·v, element by element, so grad sees c's value
// from before the update. It equals Axpy(g, c, grad) followed by
// Axpy(g, v, c) bit for bit. The three slices must be the same length.
func AxpyPair(g float32, v, c, grad []float32) {
	if len(v) != len(c) || len(grad) != len(c) {
		panic("vecmath: AxpyPair length mismatch")
	}
	if useAVX {
		axpyPairAVX(g, v, c, grad)
		return
	}
	axpyPairRef(g, v, c, grad)
}

// The pure-Go references below are the kernels on platforms without the
// assembly, and the oracle the assembly is tested against. Each product is
// converted to float32 before it is added: the explicit conversion forbids
// the compiler from fusing the multiply-add, which it may otherwise do on
// arm64, ppc64 or s390x, or on amd64 built for GOAMD64=v3.

func dotRef(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += float32(aa[0] * bb[0])
		s1 += float32(aa[1] * bb[1])
		s2 += float32(aa[2] * bb[2])
		s3 += float32(aa[3] * bb[3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

func dotsRef(dst, v []float32, rows [][]float32) {
	for k, r := range rows {
		dst[k] = dotRef(v, r)
	}
}

func axpyRef(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += float32(alpha * x[i])
	}
}

func axpyPairRef(g float32, v, c, grad []float32) {
	for i := range c {
		grad[i] += float32(g * c[i])
		c[i] += float32(g * v[i])
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes y += x in place.
func Add(x, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: Add length mismatch")
	}
	for i := range x {
		y[i] += x[i]
	}
}

// Zero clears x.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Norm returns the Euclidean norm of x.
func Norm(x []float32) float32 {
	return float32(math.Sqrt(float64(Dot(x, x))))
}

// Normalize scales x to unit length in place and returns its original norm.
// A zero vector is left unchanged and 0 is returned.
func Normalize(x []float32) float32 {
	n := Norm(x)
	if n == 0 {
		return 0
	}
	Scale(1/n, x)
	return n
}

// Cosine returns the cosine similarity of a and b, or 0 if either is zero.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Mean overwrites dst with the element-wise mean of the given vectors.
// It panics if vecs is empty or lengths differ.
func Mean(dst []float32, vecs ...[]float32) {
	if len(vecs) == 0 {
		panic("vecmath: Mean of no vectors")
	}
	Zero(dst)
	for _, v := range vecs {
		Add(v, dst)
	}
	Scale(1/float32(len(vecs)), dst)
}

// Sigmoid lookup table, identical in spirit to word2vec's expTable: the
// logistic function is evaluated ~40 times per training pair, and a 4k-entry
// table over [-maxExp, maxExp] is accurate to ~1e-3, which SGD noise dwarfs.
const (
	sigTableSize = 4096
	// MaxExp bounds the argument of the tabulated sigmoid. Inputs outside
	// [-MaxExp, MaxExp] saturate to 0 or 1, matching word2vec behaviour.
	MaxExp = 6.0
)

var sigTable [sigTableSize]float32

func init() {
	for i := 0; i < sigTableSize; i++ {
		x := (float64(i)/sigTableSize*2 - 1) * MaxExp
		sigTable[i] = float32(1 / (1 + math.Exp(-x)))
	}
}

// Sigmoid returns the logistic function of x from the lookup table,
// saturating outside [-MaxExp, MaxExp].
func Sigmoid(x float32) float32 {
	if x >= MaxExp {
		return 1
	}
	if x <= -MaxExp {
		return 0
	}
	idx := int((x + MaxExp) / (2 * MaxExp) * sigTableSize)
	if idx >= sigTableSize {
		idx = sigTableSize - 1
	}
	return sigTable[idx]
}

// SigmoidExact returns the logistic function computed with math.Exp, used
// by tests to bound table error and by numerically sensitive callers.
func SigmoidExact(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
