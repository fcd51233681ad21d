package harvester

import (
	"bufio"
	"bytes"
	"io"

	"repro/internal/core"
)

// Lines walks a chunk of text — the one line rule of the text ingest paths.
// Lines come out trimmed of surrounding whitespace (so CRLF endings vanish);
// blank ones are skipped but counted, so LineNo is the physical line number;
// what follows the last newline is a line too.
type Lines struct {
	rest []byte // not handed out yet
	no   int
	line []byte
}

// LinesOf walks chunk, whose first line is physical line after+1.
func LinesOf(chunk []byte, after int) Lines { return Lines{rest: chunk, no: after} }

// Next advances to the next non-blank line.
func (l *Lines) Next() bool {
	for len(l.rest) > 0 {
		raw := l.rest
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			raw, l.rest = raw[:i], raw[i+1:]
		} else {
			l.rest = nil
		}
		l.no++
		if l.line = bytes.TrimSpace(raw); len(l.line) > 0 {
			return true
		}
	}
	return false
}

// Line returns the current line; it aliases the chunk.
func (l *Lines) Line() []byte { return l.line }

// LineNo returns the current line's 1-based physical line number.
func (l *Lines) LineNo() int { return l.no }

// LineReader is the one read loop of the text ingest paths. It reads its
// input a chunk at a time and hands out each chunk's complete lines, one by
// one through the embedded Lines, or all at once through Take or Swap:
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
// Swap gives the buffer away instead of lending it, so a consumer on another
// goroutine parses the lines where they were read.
//
// A line is handed out once its newline has been read — never earlier, so
// a writer caught mid-line is not misparsed, and never later: no line waits
// for a following read. Only the clean end of a finite input makes its
// unterminated tail the last line; after a read error — a follow-mode tail's
// shutdown among them — the tail may be torn and is dropped. A line of
// core.MaxRecordBytes or more is an error, as in every other record reader
// of the repository.
type LineReader struct {
	Lines // over the complete lines of the current Fill, valid until the next

	r    io.Reader
	buf  []byte // allocated by a Fill that finds none
	full int    // end of the complete lines in buf
	end  int    // end of the data in buf
	err  error  // sticky; io.EOF once the input is exhausted
}

// NewLineReader returns a LineReader over r.
func NewLineReader(r io.Reader) *LineReader { return &LineReader{r: r} }

// Fill reads until at least one more complete line is buffered — one Read,
// unless a line straddles reads — and reports whether there is anything to
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
	lr.end = copy(lr.buf, lr.buf[lr.full-len(lr.rest):lr.end])
	lr.full, lr.rest = 0, nil
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
		if i := bytes.LastIndexByte(fresh, '\n'); i >= 0 {
			lr.full = lr.end - n + i + 1
		}
		if err == io.EOF {
			lr.full = lr.end // what is left is the unterminated last line
		}
		if err != nil || lr.full > 0 {
			lr.err, lr.rest = err, lr.buf[:lr.full]
			return lr.full > 0
		}
		if n > 0 {
			idle = 0
		} else if idle++; idle == 100 {
			lr.err = io.ErrNoProgress
			return false
		}
	}
}

// Take hands over, as read, what Next has not handed out of the current
// Fill, valid until the next, and moves LineNo past it: every newline
// counts, and so does an unterminated last line.
func (lr *LineReader) Take() []byte {
	chunk := lr.rest
	lr.rest = nil
	lr.no += bytes.Count(chunk, []byte{'\n'})
	if n := len(chunk); n > 0 && chunk[n-1] != '\n' {
		lr.no++
	}
	return chunk
}

// Swap is Take handing over the buffer too: the chunk, and the array under
// it to its capacity, are the caller's to keep. The next Fill reads into
// spare — a buffer an earlier Swap returned and its holder released, or nil
// — into which Swap moves the unfinished last line, the only bytes it
// copies; a spare too small for a full read is replaced by a new buffer.
func (lr *LineReader) Swap(spare []byte) []byte {
	chunk := lr.Take()
	tail := lr.buf[lr.full:lr.end]
	if need := max(core.ScanBufferSize, 2*len(tail)); cap(spare) < need {
		spare = nil // Fill makes one, unless the tail needs it now
		if len(tail) > 0 {
			spare = make([]byte, need)
		}
	}
	lr.buf, lr.full = spare[:cap(spare)], 0
	lr.end = copy(lr.buf, tail)
	return chunk
}

// Err returns the error that ended the input, nil at a clean end.
func (lr *LineReader) Err() error {
	if lr.err == io.EOF {
		return nil
	}
	return lr.err
}
