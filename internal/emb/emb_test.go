package emb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"sisg/internal/rng"
	"sisg/internal/vecmath"
)

func TestMatrixRows(t *testing.T) {
	m := NewMatrix(4, 3)
	if m.Rows() != 4 || m.Dim != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Dim)
	}
	r2 := m.Row(2)
	r2[0], r2[1], r2[2] = 7, 8, 9
	if m.Data()[6] != 7 || m.Data()[8] != 9 {
		t.Fatal("Row view is not aliased into Data")
	}
	// Full-slice expression: appending to a row must not clobber the next.
	r := m.Row(1)
	r = append(r, 99)
	if m.Row(2)[0] != 7 {
		t.Fatal("append through row view overwrote the next row")
	}
	_ = r
}

func TestNewModelInit(t *testing.T) {
	m := NewModel(10, 8, rng.New(1))
	bound := float32(0.5) / 8
	for i := 0; i < 10; i++ {
		in := m.In.Row(int32(i))
		var nonZero bool
		for _, v := range in {
			if v < -bound || v >= bound {
				t.Fatalf("input init out of range: %v", v)
			}
			if v != 0 {
				nonZero = true
			}
		}
		if !nonZero {
			t.Fatalf("input row %d all zero", i)
		}
		for _, v := range m.Out.Row(int32(i)) {
			if v != 0 {
				t.Fatal("output init must be zero")
			}
		}
	}
	if m.Dim() != 8 || m.Vocab() != 10 {
		t.Fatalf("Dim/Vocab = %d/%d", m.Dim(), m.Vocab())
	}
}

func TestScores(t *testing.T) {
	m := NewModel(3, 2, rng.New(1))
	copy(m.In.Row(0), []float32{1, 0})
	copy(m.In.Row(1), []float32{1, 1})
	copy(m.Out.Row(1), []float32{2, 3})
	if got := m.ScoreDirected(0, 1); got != 2 {
		t.Fatalf("ScoreDirected = %v", got)
	}
	want := float32(1 / math.Sqrt2)
	if got := m.ScoreCosine(0, 1); math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("ScoreCosine = %v, want %v", got, want)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	m := NewModel(17, 5, rng.New(9))
	for i := range m.Out.Data() {
		m.Out.Data()[i] = float32(i) * 0.1
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vocab() != 17 || got.Dim() != 5 {
		t.Fatalf("loaded shape %dx%d", got.Vocab(), got.Dim())
	}
	for i := range m.In.Data() {
		if m.In.Data()[i] != got.In.Data()[i] {
			t.Fatal("input data mismatch")
		}
		if m.Out.Data()[i] != got.Out.Data()[i] {
			t.Fatal("output data mismatch")
		}
	}
}

func TestSaveLoadProperty(t *testing.T) {
	f := func(vocab, dim uint8, seed uint64) bool {
		v := int(vocab%20) + 1
		d := int(dim%16) + 1
		m := NewModel(v, d, rng.New(seed))
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		return bytes.Equal(f32bytes(m.In.Data()), f32bytes(got.In.Data()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func f32bytes(fs []float32) []byte {
	out := make([]byte, 0, len(fs)*4)
	for _, f := range fs {
		b := math.Float32bits(f)
		out = append(out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	}
	return out
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("WRONGMAG")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated body.
	m := NewModel(4, 4, rng.New(1))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:20])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// modelHeader is a file prefix claiming v rows of dimension dim.
func modelHeader(v, dim uint32) []byte {
	h := append([]byte(nil), magic[:]...)
	h = binary.LittleEndian.AppendUint32(h, v)
	return binary.LittleEndian.AppendUint32(h, dim)
}

// A forged header must fail closed: no panic for a size that cannot be
// allocated, and no allocation beyond the bytes that actually arrive.
func TestLoadForgedHeader(t *testing.T) {
	if _, err := Load(bytes.NewReader(modelHeader(0xFFFFFFFF, 1<<16))); err == nil {
		t.Fatal("header with no body accepted")
	}
	// 1Mi rows × 1024 dims claims 4 GiB per matrix; send 64 KiB of it.
	data := append(modelHeader(1<<20, 1024), make([]byte, 64<<10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated body accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("Load allocated %d bytes for a %d-byte input", got, len(data))
	}
}

// A shape whose byte size overflows int is rejected before anything is
// read.
func TestReadMatrixOverflow(t *testing.T) {
	for _, shape := range [][2]int{{math.MaxInt / 2, 1 << 16}, {math.MaxInt/4 + 1, 1}, {-1, 4}, {4, 0}} {
		if _, err := ReadMatrix(bytes.NewReader(nil), shape[0], shape[1]); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("ReadMatrix(%d×%d) err = %v, want ErrBadFormat", shape[0], shape[1], err)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load: it must return an error or a
// model whose Save reproduces the bytes it consumed, and never panic.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := NewModel(3, 2, rng.New(1)).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:20])
	f.Add(modelHeader(0xFFFFFFFF, 1<<16))
	f.Add(modelHeader(0, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("Save(Load(data)) is not a prefix of data: %d vs %d bytes", out.Len(), len(data))
		}
	})
}

func TestNormalizedCopy(t *testing.T) {
	m := NewMatrix(3, 4)
	copy(m.Row(0), []float32{3, 4, 0, 0})
	copy(m.Row(1), []float32{0, 0, 0, 0}) // zero row stays zero
	copy(m.Row(2), []float32{1, 1, 1, 1})
	n := NormalizedCopy(m)
	if got := vecmath.Norm(n.Row(0)); math.Abs(float64(got)-1) > 1e-6 {
		t.Fatalf("row 0 norm %v", got)
	}
	if got := vecmath.Norm(n.Row(1)); got != 0 {
		t.Fatalf("zero row norm %v", got)
	}
	// Original untouched.
	if m.Row(0)[0] != 3 {
		t.Fatal("NormalizedCopy mutated the source")
	}
}
