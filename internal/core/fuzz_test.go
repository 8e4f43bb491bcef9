package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"fpgapart/codec"
	"fpgapart/internal/hashutil"
	"fpgapart/workload"
)

// FuzzCircuitAgainstCPU runs the circuit on a small relation and a
// configuration drawn from the fuzz bytes — format, layout (RID at every
// width, VRID, the RLE feed), fan-out, hashing, both ablations and the PAD
// headroom — and holds it to a software partitioner. Unless a PAD run
// overflows, every partition must hold the reference's tuples as a
// multiset (a VRID tuple's payload is its position), every tuple must come
// out, and with forwarding on no cycle may stall on a hazard.
func FuzzCircuitAgainstCPU(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint16(150), []byte("0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Add(uint8(0x13), uint8(0), uint16(0), []byte("\x07\x00\x00\x00\x07\x00\x00\x00\x07\x00\x00\x00\x09\x00\x00\x00"))
	f.Add(uint8(0x72), uint8(12), uint16(1000), make([]byte, 4*300))
	f.Add(uint8(0x9d), uint8(3), uint16(20), []byte("runs runs runs runs keys keys keys keys"))
	f.Fuzz(func(t *testing.T, mode, fan uint8, pad uint16, data []byte) {
		cfg := Config{
			NumPartitions:        1 << (1 + fan%13),
			TupleWidth:           8 << (mode >> 2 & 3),
			Hash:                 mode&1 != 0,
			Format:               Format(mode >> 1 & 1),
			DisableForwarding:    mode>>5&1 != 0,
			DisableWriteCombiner: mode>>6&1 != 0,
			PadFraction:          float64(pad%2000) / 1000,
		}
		vrid, rle := mode>>4&1 != 0, mode>>7 != 0
		if vrid || rle {
			cfg.Layout, cfg.TupleWidth = VRID, 8
		}
		keys := make([]uint32, min(len(data)/4, 2048))
		for j := range keys {
			keys[j] = binary.LittleEndian.Uint32(data[4*j:])
			if keys[j] == DefaultDummyKey {
				keys[j]-- // the dummy key marks empty slots; data never holds it
			}
		}
		rel, err := workload.FromKeys(keys, cfg.TupleWidth)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([][][2]uint32, cfg.NumPartitions)
		for j, key := range keys {
			payload := uint32(j)
			if cfg.Layout == RID {
				payload = rel.Payload(j)
			}
			p := hashutil.PartitionIndex32(key, cfg.RadixBits(), cfg.Hash)
			ref[p] = append(ref[p], [2]uint32{key, payload})
		}
		c := mustCircuit(t, cfg)
		var (
			out *Output
			st  *Stats
		)
		switch {
		case rle:
			out, st, err = c.PartitionCompressed(codec.CompressRLE(keys))
		case vrid:
			out, st, err = c.Partition(rel.ToColumns())
		default:
			out, st, err = c.Partition(rel)
		}
		if errors.Is(err, ErrPartitionOverflow) && cfg.Format == PAD {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.TuplesIn != int64(len(keys)) || st.TuplesOut != st.TuplesIn {
			t.Fatalf("%d tuples in, %d in the stats, %d out", len(keys), st.TuplesIn, st.TuplesOut)
		}
		if !cfg.DisableForwarding && st.StallsHazard != 0 {
			t.Fatalf("%d hazard stalls with forwarding on", st.StallsHazard)
		}
		assertMatchesReference(t, out, ref)
	})
}
