package joincore

// sketchSlots is the Misra-Gries summary size. Eight counters detect any
// key with frequency above n/9 — far below the heavy-hitter thresholds the
// budgeted join acts on — in one pass and 64 bytes of state.
const sketchSlots = 8

// topKSketch is a Misra-Gries frequency summary over build-side keys. It is
// a pure streaming fold — no hashing, no randomness — so the surviving
// candidate set depends only on the input order, which is deterministic for
// a given partitioning.
type topKSketch struct {
	keys [sketchSlots]uint32
	// counts are stored above base, so that decrementing every counter is
	// one increment of base: slot i is free when counts[i] == base.
	counts [sketchSlots]int64
	base   int64
}

func (s *topKSketch) observe(key uint32) {
	free := -1
	for i := 0; i < sketchSlots; i++ {
		if s.counts[i] == s.base {
			if free < 0 {
				free = i
			}
		} else if s.keys[i] == key {
			s.counts[i]++
			return
		}
	}
	if free >= 0 {
		s.keys[free] = key
		s.counts[free] = s.base + 1
		return
	}
	s.base++
}

// top returns the candidate with the largest surviving count. Misra-Gries
// counts are lower bounds, so the caller confirms the candidate's true
// frequency with an exact pass before acting on it.
func (s *topKSketch) top() (key uint32, ok bool) {
	best := s.base
	for i := 0; i < sketchSlots; i++ {
		if s.counts[i] > best {
			best = s.counts[i]
			key = s.keys[i]
			ok = true
		}
	}
	return key, ok
}

// heavyHitter scans the sketch's best candidate against the exact stream
// and returns its true frequency.
func heavyHitter(tuples []uint64) (key uint32, count int64) {
	var s topKSketch
	for _, t := range tuples {
		s.observe(uint32(t))
	}
	cand, ok := s.top()
	if !ok {
		return 0, 0
	}
	for _, t := range tuples {
		if uint32(t) == cand {
			count++
		}
	}
	return cand, count
}
