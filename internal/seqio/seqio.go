// Package seqio serializes user behaviour sessions and datasets so the
// command-line tools can split the production pipeline into stages
// (generate → train → evaluate → serve), exactly as the paper's §III-C
// pipeline stages pass data between systems.
//
// Two formats are provided:
//
//   - a line-oriented text format, one session per line
//     ("<usertype-token>\titem_3 item_99 item_7"), trivially greppable and
//     diffable, matching the paper's practicability claim that enriched
//     sequences "may be fed directly into any standard SGNS
//     implementation"; and
//   - a length-prefixed binary format (magic "SISGSEQ1") that is ~6× more
//     compact and is what the tools use by default.
package seqio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sisg/internal/corpus"
)

// ---- Text format ----

// WriteText writes sessions in the line format. The user type is rendered
// through the population's token (so files are self-describing); items are
// written as item_<id>.
func WriteText(w io.Writer, sessions []corpus.Session, pop *corpus.Population) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for i := range sessions {
		s := &sessions[i]
		if _, err := bw.WriteString(pop.Types[s.UserType].Token()); err != nil {
			return err
		}
		if err := bw.WriteByte('\t'); err != nil {
			return err
		}
		for j, it := range s.Items {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(corpus.ItemToken(it)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the line format back. User-type tokens are resolved
// through the population; unknown tokens are an error.
func ReadText(r io.Reader, pop *corpus.Population) ([]corpus.Session, error) {
	index := make(map[string]int32, len(pop.Types))
	for i := range pop.Types {
		index[pop.Types[i].Token()] = int32(i)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []corpus.Session
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		tab := strings.IndexByte(text, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("seqio: line %d: missing user-type column", line)
		}
		ut, ok := index[text[:tab]]
		if !ok {
			return nil, fmt.Errorf("seqio: line %d: unknown user type %q", line, text[:tab])
		}
		fields := strings.Fields(text[tab+1:])
		items := make([]int32, 0, len(fields))
		for _, f := range fields {
			id, err := parseItemToken(f)
			if err != nil {
				return nil, fmt.Errorf("seqio: line %d: %v", line, err)
			}
			items = append(items, id)
		}
		out = append(out, corpus.Session{UserType: ut, Items: items})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seqio: %w", err)
	}
	return out, nil
}

func parseItemToken(tok string) (int32, error) {
	const prefix = "item_"
	if !strings.HasPrefix(tok, prefix) {
		return 0, fmt.Errorf("bad item token %q", tok)
	}
	v, err := strconv.ParseInt(tok[len(prefix):], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad item token %q: %v", tok, err)
	}
	return int32(v), nil
}

// ---- Binary format ----
//
//	magic    [8]byte "SISGSEQ1"
//	count    uint32
//	sessions count × { usertype uint32, n uint32, items n × uint32 }

var binMagic = [8]byte{'S', 'I', 'S', 'G', 'S', 'E', 'Q', '1'}

// growStart caps the capacity ReadBinary reserves from a count in the
// file; beyond it, lists grow by append as the bytes arrive.
const growStart = 1024

// ErrBadFormat reports a corrupt or foreign session file.
var ErrBadFormat = errors.New("seqio: bad file format")

// WriteBinary writes sessions in the binary format.
func WriteBinary(w io.Writer, sessions []corpus.Session) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	var u32 [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := bw.Write(u32[:])
		return err
	}
	if err := put(uint32(len(sessions))); err != nil {
		return err
	}
	for i := range sessions {
		s := &sessions[i]
		if err := put(uint32(s.UserType)); err != nil {
			return err
		}
		if err := put(uint32(len(s.Items))); err != nil {
			return err
		}
		for _, it := range s.Items {
			if err := put(uint32(it)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads sessions written by WriteBinary. maxItems, when
// positive, bounds item IDs (corruption and mismatched-catalog detection).
// The counts in the file are untrusted: the session list and each item
// list grow only as their bytes arrive, so a header claiming more than
// the input holds fails at end of input instead of allocating it.
func ReadBinary(r io.Reader, maxItems int) ([]corpus.Session, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("seqio: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, ErrBadFormat
	}
	var u32 [4]byte
	get := func() (uint32, error) {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	count, err := get()
	if err != nil {
		return nil, fmt.Errorf("seqio: reading count: %w", err)
	}
	if count > 1<<28 {
		return nil, ErrBadFormat
	}
	out := make([]corpus.Session, 0, min(count, growStart))
	for i := uint32(0); i < count; i++ {
		ut, err := get()
		if err != nil {
			return nil, fmt.Errorf("seqio: session %d: %w", i, err)
		}
		n, err := get()
		if err != nil {
			return nil, fmt.Errorf("seqio: session %d: %w", i, err)
		}
		if n > 1<<20 {
			return nil, ErrBadFormat
		}
		items := make([]int32, 0, min(n, growStart))
		for j := uint32(0); j < n; j++ {
			v, err := get()
			if err != nil {
				return nil, fmt.Errorf("seqio: session %d item %d: %w", i, j, err)
			}
			if maxItems > 0 && int(v) >= maxItems {
				return nil, fmt.Errorf("seqio: session %d: item id %d out of range (catalog has %d)", i, v, maxItems)
			}
			items = append(items, int32(v))
		}
		out = append(out, corpus.Session{UserType: int32(ut), Items: items})
	}
	return out, nil
}
