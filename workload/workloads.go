package workload

import "fmt"

// WorkloadID names one of the five join workloads of Table 4.
type WorkloadID string

const (
	WorkloadA WorkloadID = "A" // 128M ⋈ 128M, linear keys
	WorkloadB WorkloadID = "B" // 16·2^20 ⋈ 256·2^20, linear keys
	WorkloadC WorkloadID = "C" // 128M ⋈ 128M, random keys
	WorkloadD WorkloadID = "D" // 128M ⋈ 128M, grid keys
	WorkloadE WorkloadID = "E" // 128M ⋈ 128M, reverse grid keys
)

// WorkloadSpec describes a join workload: the sizes of the build relation R
// and probe relation S and their key distribution (Table 4 of the paper).
type WorkloadSpec struct {
	ID           WorkloadID
	TuplesR      int
	TuplesS      int
	Distribution Distribution
}

// Specs returns the five workloads of Table 4 at full paper scale.
func Specs() []WorkloadSpec {
	return []WorkloadSpec{
		{WorkloadA, 128e6, 128e6, Linear},
		{WorkloadB, 16 << 20, 256 << 20, Linear},
		{WorkloadC, 128e6, 128e6, Random},
		{WorkloadD, 128e6, 128e6, Grid},
		{WorkloadE, 128e6, 128e6, ReverseGrid},
	}
}

// Spec returns the Table 4 spec for the given id.
func Spec(id WorkloadID) (WorkloadSpec, error) {
	for _, s := range Specs() {
		if s.ID == id {
			return s, nil
		}
	}
	return WorkloadSpec{}, fmt.Errorf("workload: unknown workload %q", id)
}

// Scaled returns a copy of the spec with both relation sizes divided by
// 1/scale (scale in (0, 1]); the experiment harness uses this to run the
// paper's workloads at laptop scale while preserving the R:S ratio.
func (w WorkloadSpec) Scaled(scale float64) WorkloadSpec {
	if scale <= 0 || scale > 1 {
		return w
	}
	w.TuplesR = int(float64(w.TuplesR) * scale)
	w.TuplesS = int(float64(w.TuplesS) * scale)
	if w.TuplesR < 1 {
		w.TuplesR = 1
	}
	if w.TuplesS < 1 {
		w.TuplesS = 1
	}
	return w
}

// JoinInput is a generated pair of relations ready to be joined. For linear
// workloads (A, B) the key spaces are constructed so that every S tuple has
// exactly one R match when |R| ≤ |S| key range, mirroring the primary-key /
// foreign-key joins the paper evaluates.
type JoinInput struct {
	R *Relation
	S *Relation
}

// Generate materializes the workload with 8-byte tuples (the width used in
// all join experiments of the paper, Section 5).
func (w WorkloadSpec) Generate(seed int64) (*JoinInput, error) {
	return w.GenerateWidth(seed, Width8)
}

// GenerateWidth materializes the workload with the given tuple width.
func (w WorkloadSpec) GenerateWidth(seed int64, width int) (*JoinInput, error) {
	g := NewGenerator(seed)
	var r, s *Relation
	var err error
	switch w.Distribution {
	case Linear:
		// R has unique keys [1, |R|]; S draws keys from the same range so
		// that every probe finds a match (foreign-key join).
		r, err = g.Relation(Linear, width, w.TuplesR)
		if err != nil {
			return nil, err
		}
		sKeys := make([]uint32, w.TuplesS)
		for i := range sKeys {
			sKeys[i] = uint32(g.rng.Intn(w.TuplesR)) + 1
		}
		s, err = FromKeys(sKeys, width)
		if err != nil {
			return nil, err
		}
	case Random, Grid, ReverseGrid:
		r, err = g.Relation(w.Distribution, width, w.TuplesR)
		if err != nil {
			return nil, err
		}
		// S reuses R's key population (shuffled, possibly repeated) so that
		// probes hit; the distribution shape of the keys is what the
		// experiment varies.
		sKeys := make([]uint32, w.TuplesS)
		for i := range sKeys {
			sKeys[i] = r.Key(g.rng.Intn(w.TuplesR))
		}
		s, err = FromKeys(sKeys, width)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("workload: %v not supported as a join workload", w.Distribution)
	}
	return &JoinInput{R: r, S: s}, nil
}

// GenerateSkewed materializes the workload but draws S's keys from a Zipf
// distribution over R's key space with the given factor (Figure 13: relation
// S of workload A is skewed).
func (w WorkloadSpec) GenerateSkewed(seed int64, zipfFactor float64) (*JoinInput, error) {
	g := NewGenerator(seed)
	r, err := g.Relation(Linear, Width8, w.TuplesR)
	if err != nil {
		return nil, err
	}
	s, err := g.ZipfRelation(zipfFactor, w.TuplesR, Width8, w.TuplesS)
	if err != nil {
		return nil, err
	}
	return &JoinInput{R: r, S: s}, nil
}
