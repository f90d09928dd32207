package sgns_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/dist"
	"sisg/internal/eges"
	"sisg/internal/emb"
	"sisg/internal/graph"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

// TestGoldenBits pins the exact trained matrices of every SGNS trainer —
// batch, live, distributed and EGES — on a small deterministic corpus. Any
// change to the update arithmetic, the order of RNG draws, subsampling,
// the LR schedule or the window rule changes these hashes; a refactor of
// the shared training core must leave them alone.
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes are pinned on amd64; other architectures may fuse multiply-adds")
	}
	cfg := corpus.Tiny()
	cfg.NumSessions = 900
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dict := ds.Dict.Dict

	t.Run("batch", func(t *testing.T) {
		seqs := sisg.Enrich(ds.Dict, ds.Sessions, sisg.VariantSISGFU)
		opt := sisg.TrainOptions(sgns.Defaults(), sisg.VariantSISGFU, 3)
		opt.Workers, opt.Epochs = 1, 1
		m, _, err := sgns.Train(dict, seqs, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, m.In, m.Out, "fbc1cdf691bdf046836d0dc09a687784ab49c71e4fb3dcbdb6d3d31f77627ce0")
	})

	t.Run("live", func(t *testing.T) {
		opt := sgns.LiveDefaults(dict.Len())
		opt.Window, opt.Stride, opt.Directed = 3*(1+corpus.NumSIColumns), 1+corpus.NumSIColumns, true
		opt.RebuildEvery = 512
		l, err := sgns.NewLive(opt)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < dict.Len(); id++ {
			l.AddRow(dict.KindOf(int32(id)))
		}
		for _, seq := range sisg.Enrich(ds.Dict, ds.Sessions, sisg.VariantSISGFUD) {
			l.TrainSequence(seq)
		}
		checkHash(t, l.Model().In, l.Model().Out, "65f62d5bfca6772561989de22e397a68c69e3ccf6b74639ff6c64343e9ef6b4a")
	})

	t.Run("dist", func(t *testing.T) {
		seqs := sisg.Enrich(ds.Dict, ds.Sessions, sisg.VariantSISGFUD)
		part, _, err := dist.PartitionForDataset(ds, ds.Sessions, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := dist.DefaultOptions(1)
		opt.Options = sisg.TrainOptions(opt.Options, sisg.VariantSISGFUD, 3)
		opt.Epochs = 1
		opt.Transport = dist.TransportChan
		m, _, err := dist.Train(dict, seqs, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, m.In, m.Out, "1e5873cd4f9e8985e8e808646282e09e19c4543d17ed8be06c7bde5e2c3d7a77")
	})

	t.Run("eges", func(t *testing.T) {
		opt := eges.Defaults()
		opt.Dim, opt.Epochs, opt.Workers = 16, 1, 1
		m, err := eges.Train(ds.Dict, graph.FromSessions(ds.Sessions, ds.Dict.NumItems), opt)
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, m.In, m.Out, "6fa580e3ac2d920e6aafa5d99be7628bce30a76357d236b7405b040341d3a9cb")
	})
}

func checkHash(t *testing.T, in, out *emb.Matrix, want string) {
	t.Helper()
	h := sha256.New()
	var b [4]byte
	for _, m := range []*emb.Matrix{in, out} {
		for _, v := range m.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("trained matrices hash %s, want %s", got, want)
	}
}
