package seqio

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"sisg/internal/corpus"
)

func testPopulation(t *testing.T) (*corpus.Dataset, []corpus.Session) {
	t.Helper()
	cfg := corpus.Tiny()
	cfg.NumSessions = 200
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ds.Sessions
}

func sessionsEqual(a, b []corpus.Session) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].UserType != b[i].UserType || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for j := range a[i].Items {
			if a[i].Items[j] != b[i].Items[j] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundtrip(t *testing.T) {
	ds, sessions := testPopulation(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, sessions, ds.Pop); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf, ds.Pop)
	if err != nil {
		t.Fatal(err)
	}
	if !sessionsEqual(sessions, got) {
		t.Fatal("text roundtrip mismatch")
	}
}

func TestTextFormatShape(t *testing.T) {
	ds, _ := testPopulation(t)
	sessions := []corpus.Session{{UserType: 0, Items: []int32{3, 7}}}
	var buf bytes.Buffer
	if err := WriteText(&buf, sessions, ds.Pop); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimRight(buf.String(), "\n")
	want := ds.Pop.Types[0].Token() + "\titem_3 item_7"
	if line != want {
		t.Fatalf("line = %q, want %q", line, want)
	}
}

func TestTextErrors(t *testing.T) {
	ds, _ := testPopulation(t)
	cases := []string{
		"noTabHere item_1 item_2\n",
		"ut_unknown_type\titem_1\n",
		ds.Pop.Types[0].Token() + "\tnotanitem_5\n",
		ds.Pop.Types[0].Token() + "\titem_notanumber\n",
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c), ds.Pop); err == nil {
			t.Errorf("ReadText(%q): want error", c)
		}
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	ds, sessions := testPopulation(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf, ds.Cfg.NumItems)
	if err != nil {
		t.Fatal(err)
	}
	if !sessionsEqual(sessions, got) {
		t.Fatal("binary roundtrip mismatch")
	}
}

func TestBinaryRoundtripProperty(t *testing.T) {
	f := func(raw [][]uint16, users []uint8) bool {
		var sessions []corpus.Session
		for i, items := range raw {
			if len(items) == 0 {
				continue
			}
			s := corpus.Session{Items: make([]int32, len(items))}
			if i < len(users) {
				s.UserType = int32(users[i])
			}
			for j, v := range items {
				s.Items[j] = int32(v)
			}
			sessions = append(sessions, s)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, sessions); err != nil {
			return false
		}
		got, err := ReadBinary(&buf, 0)
		if err != nil {
			return false
		}
		return sessionsEqual(sessions, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTMAGIC....."), 0); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	_, sessions := testPopulation(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2]), 0); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestBinaryOutOfRangeItem(t *testing.T) {
	sessions := []corpus.Session{{UserType: 0, Items: []int32{0, 99999}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf, 100); err == nil {
		t.Fatal("out-of-range item accepted")
	}
}

func TestEmptySessions(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d sessions", len(got))
	}
}

// binaryFile builds a session file from raw little-endian words after the
// magic: a count, then sessions as usertype, n, items.
func binaryFile(words ...uint32) []byte {
	out := append([]byte(nil), binMagic[:]...)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// A forged count must not allocate what it claims: the allocation stays
// bounded by the bytes that actually arrive.
func TestReadBinaryForgedHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		// 2^28 sessions claimed (8 GiB of session headers), 8 Ki empty
		// ones sent.
		"count": append(binaryFile(1<<28), make([]byte, 64<<10)...),
		// One session claiming 2^20 items (4 MiB), four sent.
		"items": binaryFile(1, 0, 1<<20, 1, 2, 3, 4),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadBinary(bytes.NewReader(data), 0); err == nil {
			t.Fatalf("%s: truncated file accepted", name)
		}
		runtime.ReadMemStats(&after)
		// The 1 MiB read buffer plus at most twice the received bytes' worth
		// of sessions.
		if got := after.TotalAlloc - before.TotalAlloc; got > 3<<20 {
			t.Fatalf("%s: ReadBinary allocated %d bytes for a %d-byte input", name, got, len(data))
		}
	}
}

// FuzzReadBinary feeds arbitrary bytes to ReadBinary: it must return an
// error or sessions whose WriteBinary reproduces the bytes it consumed, and
// never panic.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []corpus.Session{{UserType: 1, Items: []int32{3, 0, 7}}, {UserType: 0}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:20])
	f.Add(binaryFile(1 << 28))
	f.Add(binaryFile(1, 0, 1<<20, 5))
	f.Add(binaryFile(0))
	f.Fuzz(func(t *testing.T, data []byte) {
		sessions, err := ReadBinary(bytes.NewReader(data), 0)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, sessions); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("WriteBinary(ReadBinary(data)) is not a prefix of data: %d vs %d bytes", out.Len(), len(data))
		}
	})
}
