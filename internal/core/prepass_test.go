package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgapart/codec"
	"fpgapart/internal/hashutil"
	"fpgapart/platform"
	"fpgapart/workload"
)

// steppedPrepass is the reference for the pre-pass: the combiners' fill-rate
// logic stepped one tuple at a time in input order, as combiner.step applied
// it before the pre-pass. Tuple j goes to lane j mod lanes; a lane's slot
// count for the tuple's partition is its slot, and the tuple fills its line
// when that count reaches the lanes per line. It returns every tuple's flag
// byte, the fill image (lane*parts+p) and the histogram (HIST only); the
// strawman datapath has no fill-rate BRAM, so its flags and image stay zero.
func steppedPrepass(cfg Config, keys []uint32) (flags, fill []uint8, hist []int64) {
	lanes, parts := cfg.Lanes(), cfg.NumPartitions
	flags, fill, hist = make([]uint8, len(keys)), make([]uint8, lanes*parts), make([]int64, parts)
	type history struct {
		n    int
		last [2]uint32
	}
	seen := make([]history, lanes)
	for j, key := range keys {
		p := hashutil.PartitionIndex32(key, cfg.RadixBits(), cfg.Hash)
		if cfg.Format == HIST {
			hist[p]++
		}
		if cfg.DisableWriteCombiner {
			continue
		}
		lane := j % lanes
		h := &seen[lane]
		var flag uint8
		if h.n >= 1 && h.last[0] == p {
			flag |= flagPrev
		}
		if h.n >= 2 && h.last[1] == p {
			flag |= flagPrev2
		}
		h.n++
		h.last[1], h.last[0] = h.last[0], p
		slot := &fill[lane*parts+int(p)]
		flag |= *slot
		if int(*slot)+1 == lanes {
			flag |= flagDone
			*slot = 0
		} else {
			*slot++
		}
		flags[j] = flag
	}
	return flags, fill, hist
}

// TestPrepassMatchesSteppedReference holds the pre-pass to steppedPrepass on
// random inputs: RID relations of 8, 16 and 64 bytes, VRID columns and
// RLE-compressed columns, with uniform, few-key and run-heavy keys, fan-outs
// 2 to 8192, sizes that end in a partial lane group (down to none and one
// tuple), hashed and radix, HIST and PAD, and both ablations. Every case
// runs twice on one circuit, so the second run also holds the reset.
func TestPrepassMatchesSteppedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plat := platform.XeonFPGA()
	for i := 0; i < 300; i++ {
		layout, width, rle := RID, []int{8, 16, 64}[rng.Intn(3)], false
		switch rng.Intn(4) {
		case 0:
			layout, width = VRID, 8
		case 1:
			layout, width, rle = VRID, 8, true
		}
		cfg := Config{
			NumPartitions:        1 << (1 + rng.Intn(13)),
			TupleWidth:           width,
			Hash:                 rng.Intn(2) == 0,
			Format:               Format(rng.Intn(2)),
			Layout:               layout,
			DisableForwarding:    rng.Intn(4) == 0,
			DisableWriteCombiner: rng.Intn(4) == 0,
		}
		n := rng.Intn(3000)
		if rng.Intn(4) == 0 {
			n = rng.Intn(20)
		}
		keys := make([]uint32, n)
		alphabet := []uint32{1 << 31, 3, 1}[rng.Intn(3)] // uniform, few keys, one key
		for j := range keys {
			keys[j] = rng.Uint32() % alphabet
			if j > 0 && rng.Intn(3) == 0 { // runs, for the RLE feed
				keys[j] = keys[j-1]
			}
		}
		name := fmt.Sprintf("case %d: %v %v w%d rle=%v p%d hash=%v fwd=%v wc=%v n%d", i, cfg.Format, cfg.Layout, width, rle,
			cfg.NumPartitions, cfg.Hash, !cfg.DisableForwarding, !cfg.DisableWriteCombiner, n)
		c, err := NewCircuit(cfg, plat.FPGAClockHz, plat.FPGAAlone)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rel, err := workload.FromKeys(keys, width)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if layout == VRID {
			rel = rel.ToColumns()
		}
		wantFlags, wantFill, wantHist := steppedPrepass(c.cfg, keys)
		for pass := 0; pass < 2; pass++ {
			var r *run
			if rle {
				r = c.newRun(nil, newRLEFeed(codec.CompressRLE(keys)))
			} else {
				r = c.newRun(rel, nil)
			}
			r.prepass()
			for j, f := range r.flags {
				if f != wantFlags[j] {
					t.Fatalf("%s, run %d: tuple %d (lane %d) has flags %#x, the stepped reference %#x", name, pass, j, j%r.lanes, f, wantFlags[j])
				}
			}
			for l, cb := range r.comb {
				for p, f := range cb.fill {
					if want := wantFill[l*cfg.NumPartitions+p]; f != want {
						t.Fatalf("%s, run %d: lane %d partition %d ends at fill %d, the stepped reference at %d", name, pass, l, p, f, want)
					}
				}
			}
			for p, h := range r.hist {
				if h != wantHist[p] {
					t.Fatalf("%s, run %d: histogram[%d] = %d, the stepped reference %d", name, pass, p, h, wantHist[p])
				}
			}
		}
	}
}
