package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"sisg/internal/rng"
)

// sameBits reports whether a and b are the same float32, bit for bit; any
// two NaNs count as the same, since which NaN payload survives an add is
// not part of the schedule.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func sameSlice(a, b []float32) bool {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// fillSpecial is fill with an occasional NaN, ±Inf or signed zero mixed in.
func fillSpecial(r *rng.RNG, x []float32) {
	fill(r, x)
	for i := range x {
		switch r.Intn(40) {
		case 0:
			x[i] = float32(math.NaN())
		case 1:
			x[i] = float32(math.Inf(1 - 2*r.Intn(2)))
		case 2:
			x[i] = float32(math.Copysign(0, float64(1-2*r.Intn(2))))
		}
	}
}

// checkTrainKernels runs every training kernel and its pure-Go reference on
// the same inputs and reports the first difference.
func checkTrainKernels(t *testing.T, r *rng.RNG, dim, n int, special bool) {
	t.Helper()
	fillFn := fill
	if special {
		fillFn = fillSpecial
	}
	v := make([]float32, dim)
	fillFn(r, v)
	rows := make([][]float32, n)
	for k := range rows {
		rows[k] = make([]float32, dim)
		fillFn(r, rows[k])
	}

	got, want := make([]float32, n), make([]float32, n)
	Dots(got, v, rows)
	dotsRef(want, v, rows)
	for k := range got {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("dim=%d n=%d row=%d: Dots %x != ref %x", dim, n, k, math.Float32bits(got[k]), math.Float32bits(want[k]))
		}
		if d := Dot(v, rows[k]); !sameBits(d, want[k]) {
			t.Fatalf("dim=%d row=%d: Dot %x != ref %x", dim, k, math.Float32bits(d), math.Float32bits(want[k]))
		}
	}

	alpha := (r.Float32()*2 - 1) * 4
	x := make([]float32, dim)
	fillFn(r, x)
	y1 := append([]float32(nil), v...)
	y2 := append([]float32(nil), v...)
	Axpy(alpha, x, y1)
	axpyRef(alpha, x, y2)
	if !sameSlice(y1, y2) {
		t.Fatalf("dim=%d: Axpy %v != ref %v", dim, y1, y2)
	}

	// AxpyPair against its reference and against the two Axpy calls it
	// fuses.
	c1 := append([]float32(nil), x...)
	c2 := append([]float32(nil), x...)
	c3 := append([]float32(nil), x...)
	g1, g2, g3 := make([]float32, dim), make([]float32, dim), make([]float32, dim)
	fillFn(r, g1)
	copy(g2, g1)
	copy(g3, g1)
	AxpyPair(alpha, v, c1, g1)
	axpyPairRef(alpha, v, c2, g2)
	axpyRef(alpha, c3, g3)
	axpyRef(alpha, v, c3)
	if !sameSlice(c1, c2) || !sameSlice(g1, g2) {
		t.Fatalf("dim=%d: AxpyPair differs from its reference", dim)
	}
	if !sameSlice(c1, c3) || !sameSlice(g1, g3) {
		t.Fatalf("dim=%d: AxpyPair differs from two Axpy calls", dim)
	}
}

// The assembly (when present) must match the references bit for bit on
// every dim crossing the 8-wide body, the 4-lane step and the scalar tail,
// and on row counts including 0 and 1.
func TestTrainKernelsBitIdentical(t *testing.T) {
	if !useAVX {
		t.Log("no AVX: comparing the reference with itself")
	}
	r := rng.New(21)
	for dim := 0; dim <= 130; dim++ {
		for _, n := range []int{0, 1, 2, 6, 26} {
			checkTrainKernels(t, r, dim, n, false)
			checkTrainKernels(t, r, dim, n, true)
		}
	}
}

// Property form of the same guarantee over random shapes and values.
func TestTrainKernelsBitIdenticalProperty(t *testing.T) {
	f := func(seed uint64, dimRaw, nRaw uint8, special bool) bool {
		checkTrainKernels(t, rng.New(seed), int(dimRaw%150), int(nRaw%30), special)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The kernels work on unaligned subslices of a matrix, as rows are.
func TestTrainKernelsUnaligned(t *testing.T) {
	r := rng.New(22)
	data := make([]float32, 1024)
	fill(r, data)
	for off := 0; off < 8; off++ {
		v := data[off : off+37]
		rows := [][]float32{data[100+off : 137+off], data[301+off : 338+off]}
		got, want := make([]float32, 2), make([]float32, 2)
		Dots(got, v, rows)
		dotsRef(want, v, rows)
		if !sameSlice(got, want) {
			t.Fatalf("offset %d: Dots %v != ref %v", off, got, want)
		}
	}
}

func TestDotsShapeMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"dst":  func() { Dots(make([]float32, 1), make([]float32, 4), nil) },
		"row":  func() { Dots(make([]float32, 1), make([]float32, 4), [][]float32{make([]float32, 3)}) },
		"pair": func() { AxpyPair(1, make([]float32, 4), make([]float32, 4), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			call()
		}()
	}
}
