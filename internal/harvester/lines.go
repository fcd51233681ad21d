package harvester

import (
	"bufio"
	"bytes"
	"io"

	"repro/internal/core"
)

// LineReader is the one line loop of the text ingest paths. It reads its
// input a chunk at a time and hands out the lines of each chunk trimmed of
// surrounding whitespace (so CRLF endings vanish), skipping blank ones but
// counting them, so LineNo is the physical line number:
//
//	lr := NewLineReader(r)
//	for lr.Fill() {            // one Read
//		for lr.Next() {        // every complete line in it
//			use(lr.Line(), lr.LineNo())
//		}
//		// batch consumers flush here: one read, one batch
//	}
//	err := lr.Err()
//
// A line is handed out once its newline has been read — never earlier, so
// a writer caught mid-line is not misparsed, and never later: no line waits
// for a following read. The unterminated tail of the input is the last
// line. A line of core.MaxRecordBytes or more is an error, as in every
// other record reader of the repository.
type LineReader struct {
	r    io.Reader
	buf  []byte // allocated by the first Fill
	pos  int    // start of the next line to hand out
	full int    // end of the complete lines in buf[pos:end]
	end  int    // end of the data in buf
	no   int
	line []byte
	err  error // sticky; io.EOF once the input is exhausted
}

// NewLineReader returns a LineReader over r.
func NewLineReader(r io.Reader) *LineReader { return &LineReader{r: r} }

// Fill reads until at least one more complete line is buffered — one Read,
// unless a line straddles reads — and reports whether Next has anything to
// hand out. The lines of the previous Fill must have been consumed. It
// returns false once the input is exhausted or failed; see Err.
func (lr *LineReader) Fill() bool {
	if lr.err != nil {
		return false
	}
	if lr.buf == nil {
		lr.buf = make([]byte, core.ScanBufferSize)
	}
	// Slide the partial line the last read ended in to the front.
	lr.end = copy(lr.buf, lr.buf[lr.pos:lr.end])
	lr.pos, lr.full = 0, 0
	for idle := 0; ; {
		if lr.end == len(lr.buf) {
			if len(lr.buf) >= core.MaxRecordBytes {
				lr.err = bufio.ErrTooLong
				return false
			}
			grown := make([]byte, min(2*len(lr.buf), core.MaxRecordBytes))
			copy(grown, lr.buf)
			lr.buf = grown
		}
		n, err := lr.r.Read(lr.buf[lr.end:])
		fresh := lr.buf[lr.end : lr.end+n]
		lr.end += n
		if err != nil {
			lr.err = err
			lr.full = lr.end // what is left is the unterminated last line
			return lr.end > 0
		}
		if i := bytes.LastIndexByte(fresh, '\n'); i >= 0 {
			lr.full = lr.end - n + i + 1
			return true
		}
		if n > 0 {
			idle = 0
		} else if idle++; idle == 100 {
			lr.err = io.ErrNoProgress
			return false
		}
	}
}

// Next advances to the next non-blank line of the current Fill.
func (lr *LineReader) Next() bool {
	for lr.pos < lr.full {
		raw := lr.buf[lr.pos:lr.full]
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i]
			lr.pos++
		}
		lr.pos += len(raw)
		lr.no++
		if lr.line = bytes.TrimSpace(raw); len(lr.line) > 0 {
			return true
		}
	}
	return false
}

// Line returns the current line, valid until the next Fill.
func (lr *LineReader) Line() []byte { return lr.line }

// LineNo returns the current line's 1-based physical line number.
func (lr *LineReader) LineNo() int { return lr.no }

// Err returns the error that ended the input, nil at a clean end.
func (lr *LineReader) Err() error {
	if lr.err == io.EOF {
		return nil
	}
	return lr.err
}
