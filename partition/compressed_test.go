package partition

import (
	"testing"

	"fpgapart/codec"
	"fpgapart/platform"
)

func TestFPGACompressedMatchesPlainColumn(t *testing.T) {
	// A sorted key column compresses well and partitions identically to the
	// uncompressed path.
	keys := make([]uint32, 20000)
	for i := range keys {
		keys[i] = uint32(i/50) + 1 // runs of 50
	}
	col := codec.CompressRLE(keys)
	if col.Ratio() < 10 {
		t.Fatalf("test column only compresses %.1fx", col.Ratio())
	}
	res, err := FPGACompressed(FPGAOptions{
		Partitions: 64, Hash: true, Format: HistMode, Layout: ColumnStore,
	}, col)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTuples() != 20000 {
		t.Fatalf("TotalTuples = %d", res.TotalTuples())
	}
	if !res.FPGAWritten() {
		t.Error("flags wrong")
	}
	// Every tuple materializes correctly through its VRID.
	n := 0
	for p := 0; p < 64; p++ {
		res.Each(p, func(k, vrid uint32) {
			if keys[vrid] != k {
				t.Fatalf("VRID %d: key %#x, want %#x", vrid, k, keys[vrid])
			}
			n++
		})
	}
	if n != 20000 {
		t.Fatalf("materialized %d", n)
	}
	// Read traffic is the compressed column, not the raw keys.
	rawLines := int64((20000*4 + 63) / 64)
	if res.Stats.LinesRead >= rawLines {
		t.Errorf("LinesRead = %d, want fewer than the %d raw lines", res.Stats.LinesRead, rawLines)
	}
}

func TestFPGACompressedRequiresColumnStore(t *testing.T) {
	col := codec.CompressRLE([]uint32{1, 2, 3})
	if _, err := FPGACompressed(FPGAOptions{Partitions: 8, Format: PadMode}, col); err == nil {
		t.Error("row-store layout accepted for compressed input")
	}
}

func TestFPGACompressedValidatesOptions(t *testing.T) {
	col := codec.CompressRLE([]uint32{1})
	if _, err := FPGACompressed(FPGAOptions{Partitions: 5, Layout: ColumnStore}, col); err == nil {
		t.Error("bad fan-out accepted")
	}
}

// FPGACompressed builds its circuit as NewFPGA does: the same platform
// check and the same ablation switches.
func TestFPGACompressedConfiguresLikeNewFPGA(t *testing.T) {
	keys := make([]uint32, 20)
	for i := range keys {
		keys[i] = uint32(i/4) + 1
	}
	col := codec.CompressRLE(keys)
	opts := FPGAOptions{Partitions: 8, Hash: true, Format: HistMode, Layout: ColumnStore}

	bad := opts
	bad.Platform = platform.XeonFPGA()
	bad.Platform.FPGAAlone = platform.BandwidthCurve{}
	if _, err := NewFPGA(bad); err == nil {
		t.Fatal("NewFPGA accepted an empty FPGAAlone curve")
	}
	if err := returnsWithin(t, func() error { _, err := FPGACompressed(bad, col); return err }); err == nil {
		t.Error("FPGACompressed accepted an empty FPGAAlone curve")
	}

	on, err := FPGACompressed(opts, col)
	if err != nil {
		t.Fatal(err)
	}
	strawman := opts
	strawman.DisableWriteCombiner = true
	off, err := FPGACompressed(strawman, col)
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats == on.Stats {
		t.Error("DisableWriteCombiner left the compressed run's Stats unchanged")
	}
	if off.Stats.LinesWritten != int64(len(keys)) {
		t.Errorf("without the write combiner, %d lines written, want one per tuple (%d)", off.Stats.LinesWritten, len(keys))
	}
}
