package simtrace

import (
	"bufio"
	"fmt"
	"io"
)

// Writer is the one writer of the module's artifacts: goldens, BENCH
// records, traces, breakdowns and postmortems. It buffers what it is given,
// so a file target sees a few large writes instead of one per line, and it
// keeps the first error: after a failed write every call is a no-op, and
// Flush returns that error wrapped with the artifact's name.
type Writer struct {
	b    *bufio.Writer
	what string
	err  error
}

// NewWriter returns a Writer onto w; what names the artifact in the error
// Flush returns.
func NewWriter(w io.Writer, what string) *Writer {
	return &Writer{b: bufio.NewWriter(w), what: what}
}

// Printf formats into the buffer.
func (w *Writer) Printf(format string, args ...interface{}) {
	if w.err == nil {
		_, w.err = fmt.Fprintf(w.b, format, args...)
	}
}

// Flush writes out the buffer and returns the first error of the artifact,
// as "<what>: <error>".
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.b.Flush()
	}
	if w.err != nil {
		return fmt.Errorf("%s: %w", w.what, w.err)
	}
	return nil
}

// Sep is the comma that closes element i of an n-element list: "," for all
// but the last.
func Sep(i, n int) string {
	if i == n-1 {
		return ""
	}
	return ","
}
