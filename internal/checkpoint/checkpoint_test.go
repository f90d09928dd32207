package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sisg/internal/emb"
	"sisg/internal/rng"
)

func sampleSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	r := rng.New(7)
	m := emb.NewModel(50, 8, r)
	for i := int32(0); i < 50; i++ {
		row := m.Out.Row(i)
		for j := range row {
			row[j] = r.Float32() - 0.5
		}
	}
	hotIn := [][]float32{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}}
	hotOut := [][]float32{{0.5, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, -0.5}}
	return &Snapshot{
		OptionsHash: HashOptions("opts", 50, 8),
		Epoch:       1,
		Block:       3,
		Counters:    []uint64{12345, 678, 9},
		RNGs:        [][4]uint64{r.State(), rng.New(9).State()},
		Model:       m,
		HotIn:       hotIn,
		HotOut:      hotOut,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleSnapshot(t)
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists false after Save")
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.OptionsHash != want.OptionsHash || got.Epoch != want.Epoch || got.Block != want.Block {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Counters) != len(want.Counters) {
		t.Fatalf("counters: %v", got.Counters)
	}
	for i := range want.Counters {
		if got.Counters[i] != want.Counters[i] {
			t.Fatalf("counter %d: %d != %d", i, got.Counters[i], want.Counters[i])
		}
	}
	if len(got.RNGs) != 2 || got.RNGs[0] != want.RNGs[0] || got.RNGs[1] != want.RNGs[1] {
		t.Fatalf("rng states: %v", got.RNGs)
	}
	if got.Model.Vocab() != 50 || got.Model.Dim() != 8 {
		t.Fatalf("model shape %d×%d", got.Model.Vocab(), got.Model.Dim())
	}
	for i, v := range want.Model.In.Data() {
		if got.Model.In.Data()[i] != v {
			t.Fatalf("in[%d] mismatch", i)
		}
	}
	for i, v := range want.Model.Out.Data() {
		if got.Model.Out.Data()[i] != v {
			t.Fatalf("out[%d] mismatch", i)
		}
	}
	for i := range want.HotIn {
		for j := range want.HotIn[i] {
			if got.HotIn[i][j] != want.HotIn[i][j] || got.HotOut[i][j] != want.HotOut[i][j] {
				t.Fatalf("hot row %d mismatch", i)
			}
		}
	}
}

func TestCheckOptions(t *testing.T) {
	s := sampleSnapshot(t)
	if err := s.CheckOptions(s.OptionsHash); err != nil {
		t.Fatal(err)
	}
	err := s.CheckOptions(s.OptionsHash + 1)
	if !errors.Is(err, ErrOptionsMismatch) {
		t.Fatalf("mismatched hash accepted: %v", err)
	}
}

// Every single byte of the file is load-bearing: flipping any one of them
// must be detected, either by structural validation or by the CRC.
func TestCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Sample offsets across the file (header, payload, trailer) rather
	// than all of them, to keep the test fast.
	offsets := []int{0, 7, 8, 20, 41, len(orig) / 2, len(orig) - 5, len(orig) - 1}
	for _, off := range offsets {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0x40
		if err := os.WriteFile(Path(dir), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: Load returned %v, want ErrCorrupt", off, err)
		}
	}
	// Truncation is also corruption.
	if err := os.WriteFile(Path(dir), orig[:len(orig)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file: Load returned %v, want ErrCorrupt", err)
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v, want ErrNotExist", err)
	}
}

// Save must never leave a partial snapshot visible: after an overwrite the
// directory holds exactly the one complete file, and a previous snapshot
// survives an interrupted write (simulated by the temp-file protocol
// itself — the rename is the only visible mutation).
func TestSaveAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	first := sampleSnapshot(t)
	if err := Save(dir, first); err != nil {
		t.Fatal(err)
	}
	second := sampleSnapshot(t)
	second.Epoch = 9
	second.Counters[0] = 999
	if err := Save(dir, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 9 || got.Counters[0] != 999 {
		t.Fatalf("overwrite not visible: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("stray files after Save: %v", names)
	}
}

func TestSaveRejectsNil(t *testing.T) {
	if err := Save(t.TempDir(), nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if err := Save(t.TempDir(), &Snapshot{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestHashOptionsDistinguishes(t *testing.T) {
	a := HashOptions("x", 1, 2.5)
	b := HashOptions("x", 1, 2.6)
	if a == b {
		t.Fatal("different options hashed equal")
	}
	if a != HashOptions("x", 1, 2.5) {
		t.Fatal("hash not deterministic")
	}
}

func TestSaveCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpt")
	if err := Save(dir, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatal(err)
	}
}

// snapshotHeader builds the start of a snapshot file: magic, options hash,
// epoch and block, then the given little-endian words.
func snapshotHeader(words ...uint32) []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.LittleEndian.AppendUint64(out, 1)
	out = binary.LittleEndian.AppendUint64(out, 0) // epoch, block
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// A forged count or shape must not allocate what it claims before the
// bytes arrive or the CRC is checked: each case sends 64 KiB against a
// header claiming far more, and must fail with bounded allocation.
func TestLoadForgedHeader(t *testing.T) {
	for name, hdr := range map[string][]byte{
		// 2^20 counters, then 2^20 RNG states (8 + 32 MiB).
		"counters": snapshotHeader(1 << 20),
		"rngs":     snapshotHeader(0, 1<<20),
		// A 2^28 × 2^16 model: 64 TiB per matrix.
		"model": snapshotHeader(0, 0, 1<<28, 1<<16),
		// An empty model and a 2^24 × 2^16 hot store.
		"hot": snapshotHeader(0, 0, 0, 8, 1<<24, 1<<16),
		// 2^24 hot rows of zero floats would need no bytes at all.
		"hot-zero-dim": snapshotHeader(0, 0, 0, 8, 1<<24, 0),
	} {
		data := append(hdr, make([]byte, 64<<10)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		// The 1 MiB read buffer plus at most twice the received bytes.
		if got := after.TotalAlloc - before.TotalAlloc; got > 3<<20 {
			t.Fatalf("%s: Load allocated %d bytes for a %d-byte input", name, got, len(data))
		}
	}
}
