package distjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgapart/internal/hashutil"
	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/partition"
	"fpgapart/workload"
)

const dummyKey = 0xFFFFFFFF // the circuit's default dummy key

// runsRelation builds a width-byte row relation of n tuples: keys from a
// small alphabet (duplicates on both sides), payload = index + salt, key 0
// present and, every dummyEvery tuples, the circuit's dummy key. On the FPGA a
// dummy-keyed tuple reads back as padding: with alone, no other key lands in
// the dummy key's partition at fan-out fan, which is then all dummies; without,
// that partition has dummy slots between its tuples.
func runsRelation(t *testing.T, rng *rand.Rand, width, n, fan, dummyEvery int, alone bool, salt uint32) *workload.Relation {
	t.Helper()
	rel, err := workload.NewRelation(workload.RowLayout, width, n)
	if err != nil {
		t.Fatal(err)
	}
	bits := hashutil.Log2(fan)
	dummyPart := hashutil.PartitionIndex32(dummyKey, bits, true)
	for i := 0; i < n; i++ {
		key := uint32(rng.Intn(n / 2))
		for alone && hashutil.PartitionIndex32(key, bits, true) == dummyPart {
			key++
		}
		if i == 0 {
			key = 0
		}
		if dummyEvery > 0 && i%dummyEvery == 1 {
			key = dummyKey
		}
		rel.SetTuple(i, key, uint32(i)+salt)
	}
	return rel
}

// referenceJoin joins the source relations tuple by tuple, reading neither
// partitions nor runs. With dropDummy it leaves out the tuples the FPGA's
// output encoding cannot represent.
func referenceJoin(r, s *workload.Relation, dropDummy bool) (matches int64, checksum uint64) {
	for i := 0; i < r.NumTuples; i++ {
		for j := 0; j < s.NumTuples; j++ {
			if key := r.Key(i); key == s.Key(j) && !(dropDummy && key == dummyKey) {
				matches++
				checksum += uint64(r.Payload(i)) + uint64(s.Payload(j))
			}
		}
	}
	return matches, checksum
}

// shapes counts what the runs of ps look like, so the test can tell that its
// producers made the shapes it is named for.
type shapes struct {
	empty, allDummy, midLine, dummyLines, maxRuns int
}

func shapesOf(ps joincore.Partitions) (sh shapes) {
	for p := 0; p < ps.NumPartitions(); p++ {
		slots, tuples := 0, 0
		sh.maxRuns = max(sh.maxRuns, ps.NumRuns(p))
		for i := 0; i < ps.NumRuns(p); i++ {
			words, stride, dummy, hasDummy := ps.Run(p, i)
			perLine := 8 / stride
			for line := 0; line+8 <= len(words) && hasDummy; line += 8 {
				valid, mid := 0, false
				for j := 0; j < perLine; j++ {
					if uint32(words[line+j*stride]) != dummy {
						valid++
						mid = mid || valid <= j // a tuple after a dummy slot
					}
				}
				if valid == 0 {
					sh.dummyLines++
				}
				if mid {
					sh.midLine++
				}
			}
			for j := 0; j < len(words); j += stride {
				slots++
				if !hasDummy || uint32(words[j]) != dummy {
					tuples++
				}
			}
		}
		if slots == 0 {
			sh.empty++
		} else if tuples == 0 {
			sh.allDummy++
		}
	}
	return sh
}

// TestRunsViewMatchesNestedLoop is the producer matrix of the runs view:
// whatever writes the partitions — the CPU partitioner, the circuit in PAD
// and HIST mode at every tuple width (strides 1, 2, 4 and 8 words, dummy
// slots inside lines and whole dummy lines), or a distributed join's merged
// pieces of 1, 3 and 5 sources — and whatever the budget, build + probe over
// the runs finds the matches and checksum of a tuple-by-tuple join of the
// source relations, and of joincore.NestedLoop over the same runs.
func TestRunsViewMatchesNestedLoop(t *testing.T) {
	const fan, nR, nS = 64, 320, 400
	type producer struct {
		name      string
		width     int
		dropDummy bool // FPGA-written: dummy-keyed tuples read back as padding
		make      func(rel *workload.Relation) joincore.Partitions
	}
	cpu, err := partition.NewCPU(partition.CPUOptions{Partitions: fan, Hash: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	single := func(p partition.Partitioner, fpgaWritten bool) func(*workload.Relation) joincore.Partitions {
		return func(rel *workload.Relation) joincore.Partitions {
			res, err := p.Partition(rel)
			if err != nil {
				t.Fatal(err)
			}
			if res.FPGAWritten() != fpgaWritten {
				t.Fatalf("%s: FPGA-written %v, want %v", p.Name(), res.FPGAWritten(), fpgaWritten)
			}
			return res
		}
	}
	pieces := func(p partition.Partitioner, sources int) func(*workload.Relation) joincore.Partitions {
		return func(rel *workload.Relation) joincore.Partitions {
			m := &merged{gps: make([]int, fan)}
			for gp := range m.gps {
				m.gps[gp] = fan - 1 - gp // an arbitrary owned list, as after a takeover
			}
			for _, sh := range shard(rel, sources) {
				res, err := p.Partition(sh)
				if err != nil {
					t.Fatal(err)
				}
				m.parts = append(m.parts, res)
			}
			return m
		}
	}
	producers := []producer{{"cpu", 8, false, single(cpu, false)}}
	for _, width := range []int{8, 16, 32, 64} {
		for _, format := range []partition.Format{partition.PadMode, partition.HistMode} {
			fpga, err := partition.NewFPGA(partition.FPGAOptions{Partitions: fan, TupleWidth: width, Hash: true, Format: format, PadFraction: 16})
			if err != nil {
				t.Fatal(err)
			}
			producers = append(producers, producer{fpga.Name() + fmt.Sprintf("/w%d", width), width, true, single(fpga, true)})
			if width == 8 && format == partition.HistMode {
				for _, sources := range []int{1, 3, 5} {
					producers = append(producers, producer{fmt.Sprintf("merged %d × fpga", sources), 8, true, pieces(fpga, sources)})
				}
			}
		}
	}
	for _, sources := range []int{1, 3, 5} {
		producers = append(producers, producer{fmt.Sprintf("merged %d × cpu", sources), 8, false, pieces(cpu, sources)})
	}

	var seen shapes
	for _, pr := range producers {
		for _, dummyEvery := range []int{0, 9} {
			rng := rand.New(rand.NewSource(int64(pr.width + dummyEvery)))
			rRel := runsRelation(t, rng, pr.width, nR, fan, dummyEvery, true, 1<<20)
			sRel := runsRelation(t, rng, pr.width, nS, fan, dummyEvery, false, 0)
			r, s := pr.make(rRel), pr.make(sRel)
			for _, sh := range []shapes{shapesOf(r), shapesOf(s)} {
				seen.empty += sh.empty
				seen.allDummy += sh.allDummy
				seen.midLine += sh.midLine
				seen.dummyLines += sh.dummyLines
				seen.maxRuns = max(seen.maxRuns, sh.maxRuns)
			}
			wantM, wantC := referenceJoin(rRel, sRel, pr.dropDummy)
			if m, c := joincore.NestedLoop(r, s); m != wantM || c != wantC {
				t.Fatalf("%s, dummy key every %d: NestedLoop over the runs = %d/%#x, source relations join to %d/%#x",
					pr.name, dummyEvery, m, c, wantM, wantC)
			}
			if m, _ := referenceJoin(rRel, sRel, true); dummyEvery > 0 && m == wantM && !pr.dropDummy {
				t.Fatalf("%s: no matches on the dummy key as a real key", pr.name)
			}
			// Unlimited; every partition of more than eight build tuples
			// spills; one tuple fits and nothing larger.
			for _, budget := range []int64{0, 8 * joincore.BuildTupleBytes, joincore.BuildTupleBytes} {
				var emitted int64
				res, _, err := joincore.BudgetedBuildProbe(r, s, joincore.BudgetConfig{
					Budget: membudget.New(budget), Spill: &membudget.SpillStore{}, Threads: 1,
					Emit: func(_ int, _, rPay, sPay uint32) {
						if rPay < 1<<20 || sPay >= 1<<20 {
							t.Fatalf("%s: emitted R payload %d, S payload %d", pr.name, rPay, sPay)
						}
						emitted++
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != wantM || res.Checksum != wantC || emitted != wantM {
					t.Fatalf("%s, dummy key every %d, budget %d: %d/%#x (%d emitted), want %d/%#x",
						pr.name, dummyEvery, budget, res.Matches, res.Checksum, emitted, wantM, wantC)
				}
			}
		}
	}
	if seen.empty == 0 || seen.allDummy == 0 || seen.midLine == 0 || seen.dummyLines == 0 || seen.maxRuns < 5 {
		t.Errorf("the matrix missed a shape it is meant to cover: %+v", seen)
	}
}
