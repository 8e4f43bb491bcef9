package cluster

// runInline is Run without the outcome memo and its lookahead: every
// dispatch executes its job on the loop's goroutine. The lookahead tests hold
// Run to its bytes.
func runInline(reqs []Request, cfg Config) (*Report, error) { return serve(reqs, cfg, false) }
