package distjoin

import (
	"errors"
	"math"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/partition"
	"fpgapart/workload"
)

// fuzzKeys is the key alphabet of FuzzJoin: few keys, so matches are
// frequent, with 0 and the circuit's dummy key among them.
var fuzzKeys = [...]uint32{0, 1, 2, 3, 1 << 31, dummyKey - 1, dummyKey, dummyKey}

// FuzzJoin runs the distributed join on hostile options and inputs: up to
// 256 tuples a side keyed from fuzzKeys, 1–8 nodes, any per-node fan-out up
// to 64, either backend, drop and corruption probabilities from raw float
// bits and an optional crash. The oracle: a validation error that is not a
// simulator fault, or the brute-force join's matches and checksum.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{0, 1, 6, 2, 7, 1, 6, 0}, uint8(1), uint8(15), false, false, uint64(0), uint64(0), false, uint8(0), uint8(0), uint64(1))
	f.Add([]byte{6, 6, 6, 6, 6, 6}, uint8(3), uint8(7), true, false, math.Float64bits(0.1), math.Float64bits(0.3), true, uint8(1), uint8(128), uint64(2))
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 0}, uint8(1), uint8(3), true, true, uint64(0), math.Float64bits(0.5), false, uint8(0), uint8(0), uint64(3))
	f.Add([]byte{1, 2}, uint8(2), uint8(4), true, true, math.Float64bits(math.NaN()), uint64(0), true, uint8(7), uint8(255), uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, nodes, fan uint8, fpga, pad bool, drop, corrupt uint64, crash bool, crashNode, crashAt uint8, seed uint64) {
		if len(data) > 512 {
			t.Skip("at most 256 tuples a side")
		}
		var rels [2]*workload.Relation
		for side := range rels {
			keys := data[side*len(data)/2 : (side+1)*len(data)/2]
			rel, err := workload.NewRelation(workload.RowLayout, 8, len(keys))
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range keys {
				rel.SetTuple(i, fuzzKeys[b%8], uint32(side<<16|i))
			}
			rels[side] = rel
		}
		opts := Options{
			Nodes: 1 + int(nodes%8), PartitionsPerNode: 1 + int(fan%64), Threads: 1, UseFPGA: fpga,
			Faults: &faults.Scenario{Seed: seed, DropProb: math.Float64frombits(drop), CorruptProb: math.Float64frombits(corrupt)},
		}
		if pad {
			opts.Format = partition.PadMode
		}
		if crash {
			opts.Faults.Crashes = []faults.Crash{{Node: int(crashNode % 8), AfterFraction: float64(crashAt) / 255}}
		}
		res, err := Join(rels[0], rels[1], opts)
		if err != nil {
			if errors.Is(err, ErrSimulatorFault) {
				t.Fatalf("%+v: %v", opts, err)
			}
			return
		}
		if m, c := referenceJoin(rels[0], rels[1], false); res.Matches != m || res.Checksum != c {
			t.Fatalf("%+v: %d matches (checksum %#x), brute force %d (%#x)", opts, res.Matches, res.Checksum, m, c)
		}
	})
}
