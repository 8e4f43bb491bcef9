package distjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgapart/internal/joincore"
	"fpgapart/internal/membudget"
	"fpgapart/partition"
	"fpgapart/workload"
)

const dummyKey = 0xFFFFFFFF // the circuit's default dummy key

// runsRelation builds a width-byte row relation of n tuples: keys from a
// small alphabet (duplicates on both sides), payload = index + salt, key 0
// present and, every dummyEvery tuples, the circuit's dummy key, which sends
// a circuit run to the CPU fallback.
func runsRelation(t *testing.T, rng *rand.Rand, width, n, dummyEvery int, salt uint32) *workload.Relation {
	t.Helper()
	rel, err := workload.NewRelation(workload.RowLayout, width, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := uint32(rng.Intn(n / 2))
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
// partitions nor runs. With dropDummy it leaves out the dummy-keyed tuples.
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
	empty, paddedLines, maxRuns int
}

func shapesOf(ps joincore.Partitions) (sh shapes) {
	for p := 0; p < ps.NumPartitions(); p++ {
		sh.maxRuns = max(sh.maxRuns, ps.NumRuns(p))
		slots := 0
		for i := 0; i < ps.NumRuns(p); i++ {
			words, stride, dummy, hasDummy := ps.Run(p, i)
			slots += len(words) / stride
			for line := 0; line+8 <= len(words) && hasDummy; line += 8 {
				if uint32(words[line+8-stride]) == dummy { // flush padding ends the line
					sh.paddedLines++
				}
			}
		}
		if slots == 0 {
			sh.empty++
		}
	}
	return sh
}

// TestRunsViewMatchesNestedLoop is the producer matrix of the runs view:
// whatever writes the partitions — the CPU partitioner, the circuit in PAD
// and HIST mode at every tuple width (strides 1, 2, 4 and 8 words, lines
// padded by the flush), the circuit's CPU fallback over the dummy key, or a
// distributed join's merged pieces of 1, 3 and 5 sources — and whatever the
// budget, build + probe over the runs finds the matches and checksum of a
// tuple-by-tuple join of the source relations, dummy-keyed tuples included,
// and of joincore.NestedLoop over the same runs.
func TestRunsViewMatchesNestedLoop(t *testing.T) {
	const fan, nR, nS = 64, 320, 400
	type producer struct {
		name  string
		width int
		make  func(rel *workload.Relation) joincore.Partitions
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
			// A circuit run falls back only over the dummy key: PadFraction 16
			// leaves PAD no overflow.
			if want := fpgaWritten && !res.FellBack(); res.FPGAWritten() != want || res.FellBack() && res.Stats.Overflowed {
				t.Fatalf("%s: FPGA-written %v, want %v (fell back %v)", p.Name(), res.FPGAWritten(), want, res.FellBack())
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
	producers := []producer{{"cpu", 8, single(cpu, false)}}
	for _, width := range []int{8, 16, 32, 64} {
		for _, format := range []partition.Format{partition.PadMode, partition.HistMode} {
			fpga, err := partition.NewFPGA(partition.FPGAOptions{Partitions: fan, TupleWidth: width, Hash: true, Format: format, PadFraction: 16})
			if err != nil {
				t.Fatal(err)
			}
			producers = append(producers, producer{fpga.Name() + fmt.Sprintf("/w%d", width), width, single(fpga, true)})
			if width == 8 && format == partition.HistMode {
				for _, sources := range []int{1, 3, 5} {
					producers = append(producers, producer{fmt.Sprintf("merged %d × fpga", sources), 8, pieces(fpga, sources)})
				}
			}
		}
	}
	for _, sources := range []int{1, 3, 5} {
		producers = append(producers, producer{fmt.Sprintf("merged %d × cpu", sources), 8, pieces(cpu, sources)})
	}

	var seen shapes
	for _, pr := range producers {
		for _, dummyEvery := range []int{0, 9} {
			rng := rand.New(rand.NewSource(int64(pr.width + dummyEvery)))
			rRel := runsRelation(t, rng, pr.width, nR, dummyEvery, 1<<20)
			sRel := runsRelation(t, rng, pr.width, nS, dummyEvery, 0)
			r, s := pr.make(rRel), pr.make(sRel)
			for _, sh := range []shapes{shapesOf(r), shapesOf(s)} {
				seen.empty += sh.empty
				seen.paddedLines += sh.paddedLines
				seen.maxRuns = max(seen.maxRuns, sh.maxRuns)
			}
			wantM, wantC := referenceJoin(rRel, sRel, false)
			if m, c := joincore.NestedLoop(r, s); m != wantM || c != wantC {
				t.Fatalf("%s, dummy key every %d: NestedLoop over the runs = %d/%#x, source relations join to %d/%#x",
					pr.name, dummyEvery, m, c, wantM, wantC)
			}
			if m, _ := referenceJoin(rRel, sRel, true); dummyEvery > 0 && m == wantM {
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
	if seen.empty == 0 || seen.paddedLines == 0 || seen.maxRuns < 5 {
		t.Errorf("the matrix missed a shape it is meant to cover: %+v", seen)
	}
}
