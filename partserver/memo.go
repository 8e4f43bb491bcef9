package partserver

import (
	"sync"
	"sync/atomic"
)

// Memo holds the execution outcomes of the requests a routing tier spreads
// over several Schedulers, one per request and backend (FPGA or CPU). An
// outcome — counts, checksum, matches, spill, error and, on the FPGA, the
// simulated cycles the charge is computed from — is a pure function of the
// job and the backend: no slot, history, seed or virtual time enters it. So a
// request that executes again on a backend it has run on (a hedge, a retry)
// reuses the first execution's outcome instead of repeating it, and a CPU
// outcome may be computed ahead of the dispatch that needs it, on another
// goroutine (Ahead). FPGA outcomes are not computed ahead: the
// circuit simulation is several times a CPU execution's host cost and most
// requests never run on an FPGA, so an FPGA outcome is simulated where it is
// first dispatched and only reused after that.
//
// Schedulers given the same Memo (Config.Memo) must carry the request in
// Job.Tag, as the Memo's request function decodes it. Outcomes are shared,
// not copied: JobResult.Counts of two jobs of one request is one slice, which
// no one may modify. Each entry is computed once, in its sync.Once, and Ahead
// computes only an entry that no dispatch has claimed.
type Memo struct {
	request func(tag int64) int

	// entries[2*req] is request req's FPGA outcome, entries[2*req+1] its CPU
	// one.
	entries []memoEntry
	// ahead is the CPU slot Ahead's one goroutine computes on.
	ahead resource
}

type memoEntry struct {
	claimed atomic.Bool
	once    sync.Once
	out     execOut
}

// NewMemo returns an empty memo over requests requests; request maps the
// Job.Tag a Scheduler sees to the request's index in [0, requests).
func NewMemo(requests int, request func(tag int64) int) *Memo {
	return &Memo{
		request: request,
		entries: make([]memoEntry, 2*requests),
		ahead:   resource{kind: PlacedCPU},
	}
}

// Ahead computes request req's CPU outcome for job unless a dispatch has
// claimed it already, in which case it returns at once. A routing tier calls
// it from one goroutine, beside the loop that steps its Schedulers, in the
// order it expects their CPU dispatches.
func (m *Memo) Ahead(req int, job *Job) {
	e := &m.entries[2*req+1]
	if e.claimed.CompareAndSwap(false, true) {
		e.once.Do(func() { e.out = m.ahead.run(job, keyOf(job)) })
	}
}

// outcome is job j's outcome on r's backend: the memoised one if it is done,
// once it is done if Ahead is computing it, else r's own execution of j,
// which is then memoised.
func (m *Memo) outcome(r *resource, j *jobState) execOut {
	e := &m.entries[2*m.request(j.spec.Tag)+int(r.kind)-int(PlacedFPGA)]
	e.claimed.Store(true)
	e.once.Do(func() { e.out = r.run(&j.spec, j.key) })
	return e.out
}
