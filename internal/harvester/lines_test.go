package harvester

import (
	"bufio"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
)

type numbered struct {
	No   int
	Line string
}

// sizedReader returns at most n bytes per Read.
type sizedReader struct {
	r io.Reader
	n int
}

func (s sizedReader) Read(p []byte) (int, error) {
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}

func readAll(t *testing.T, r io.Reader) (lines []numbered, perFill []int, err error) {
	t.Helper()
	lr := NewLineReader(r)
	for lr.Fill() {
		n := 0
		for lr.Next() {
			lines = append(lines, numbered{lr.LineNo(), string(lr.Line())})
			n++
		}
		perFill = append(perFill, n)
	}
	return lines, perFill, lr.Err()
}

// TestLineReaderMatchesScannerLoop: at every read size the reader hands out
// the lines, with the line numbers, that the Scanner + TrimSpace +
// blank-skip loop it replaced did.
func TestLineReaderMatchesScannerLoop(t *testing.T) {
	inputs := map[string]string{
		"plain":        "a\nb\nc\n",
		"unterminated": "a\nb\nc",
		"blank lines":  "\n\na\n\n \t \nb\n\n",
		"crlf":         "a\r\n\r\nb \r\nc\r",
		"unicode trim": "\u00a0a b\u0085\n\vc\f\n",
		"only blanks":  "\n \n\t",
		"empty":        "",
		"long":         strings.Repeat("x", 3*core.ScanBufferSize) + "\nshort\n" + strings.Repeat("y", core.ScanBufferSize+1),
	}
	for name, input := range inputs {
		var want []numbered
		if err := oracleLines(strings.NewReader(input), func(no int, line string) {
			want = append(want, numbered{no, line})
		}); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		readers := map[string]func() io.Reader{
			"whole":   func() io.Reader { return strings.NewReader(input) },
			"1 byte":  func() io.Reader { return iotest.OneByteReader(strings.NewReader(input)) },
			"7 bytes": func() io.Reader { return sizedReader{strings.NewReader(input), 7} },
			"data+EOF": func() io.Reader {
				return iotest.DataErrReader(strings.NewReader(input))
			},
		}
		for rname, mk := range readers {
			got, _, err := readAll(t, mk())
			if err != nil {
				t.Errorf("%s/%s: %v", name, rname, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s:\n got  %.200q\n want %.200q", name, rname, got, want)
			}
		}
	}
}

// TestLineReaderTakeMatchesNext: handing a Fill over whole with Take and
// walking it elsewhere with LinesOf yields the lines and physical line
// numbers Next would have — blank lines, CRLF and the unterminated last line
// included — and leaves LineNo where Next would have left it.
func TestLineReaderTakeMatchesNext(t *testing.T) {
	input := "a\n\n \t\nb\r\n\r\nc d \n\n\ne\nf\n\n\ng"
	for _, size := range []int{1, 3, 7, 1 << 16} {
		want, _, err := readAll(t, sizedReader{strings.NewReader(input), size})
		if err != nil {
			t.Fatal(err)
		}
		var got []numbered
		lr := NewLineReader(sizedReader{strings.NewReader(input), size})
		for lr.Fill() {
			after := lr.LineNo()
			chunk := append([]byte(nil), lr.Take()...) // a consumer on another goroutine owns a copy
			if lr.Next() {
				t.Fatalf("%d-byte reads: Next after Take handed out %q", size, lr.Line())
			}
			lines := LinesOf(chunk, after)
			for lines.Next() {
				got = append(got, numbered{lines.LineNo(), string(lines.Line())})
			}
			// The reader counts blank lines the walker skipped at the chunk's end.
			if lines.LineNo() > lr.LineNo() {
				t.Fatalf("%d-byte reads: walker at line %d, reader at %d", size, lines.LineNo(), lr.LineNo())
			}
		}
		if err := lr.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d-byte reads:\n got  %v\n want %v", size, got, want)
		}
		if lr.LineNo() != 13 {
			t.Errorf("%d-byte reads: LineNo after the last Take = %d, want 13", size, lr.LineNo())
		}
	}
}

// TestLineReaderOneReadOneBatch: every complete line of a read is handed
// out in that Fill, a line cut by the read waits for its newline, and the
// unterminated tail comes out at the end of the input.
func TestLineReaderOneReadOneBatch(t *testing.T) {
	r := &chunkReader{chunks: []string{"a\nb\nc", "c\n", "d", "d", "d\ne\nf"}}
	lines, perFill, err := readAll(t, r)
	if err != nil {
		t.Fatal(err)
	}
	want := []numbered{{1, "a"}, {2, "b"}, {3, "cc"}, {4, "ddd"}, {5, "e"}, {6, "f"}}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("lines = %v, want %v", lines, want)
	}
	if !reflect.DeepEqual(perFill, []int{2, 1, 2, 1}) {
		t.Errorf("lines per Fill = %v, want [2 1 2 1]", perFill)
	}
}

// chunkReader returns one scripted chunk per Read.
type chunkReader struct{ chunks []string }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; c.chunks[0] == "" {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func TestLineReaderErrors(t *testing.T) {
	// A read error ends the input after the complete lines read so far. The
	// unterminated tail may be torn and is dropped, where bufio.Scanner
	// would hand it out — also when it arrives with the error.
	boom := errors.New("boom")
	for name, r := range map[string]io.Reader{
		"error after data": io.MultiReader(strings.NewReader("a\nb\nc"), iotest.ErrReader(boom)),
		"error with data":  &dataErrReader{"a\nb\nc", boom},
	} {
		lines, _, err := readAll(t, r)
		if want := []numbered{{1, "a"}, {2, "b"}}; !errors.Is(err, boom) || !reflect.DeepEqual(lines, want) {
			t.Errorf("%s: lines = %v, err = %v; want %v and boom", name, lines, err, want)
		}
	}
	// The record bound: one byte under fits, the bound itself does not.
	fits := strings.Repeat("z", core.MaxRecordBytes-1)
	if lines, _, err := readAll(t, strings.NewReader(fits+"\nnext\n")); err != nil || len(lines) != 2 || len(lines[0].Line) != len(fits) {
		t.Errorf("line of MaxRecordBytes-1: %d lines, err = %v", len(lines), err)
	}
	if _, _, err := readAll(t, strings.NewReader("first\n"+fits+"z\n")); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line of MaxRecordBytes: err = %v, want bufio.ErrTooLong", err)
	}
	if _, _, err := readAll(t, iotest.TimeoutReader(strings.NewReader("a\nb\n"))); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("timeout reader: err = %v", err)
	}
	var stuck stuckReader
	if _, _, err := readAll(t, &stuck); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("reader returning 0, nil forever: err = %v", err)
	}
}

// dataErrReader returns all its data together with its error in one Read.
type dataErrReader struct {
	data string
	err  error
}

func (d *dataErrReader) Read(p []byte) (int, error) {
	n := copy(p, d.data)
	d.data = d.data[n:]
	return n, d.err
}

type stuckReader struct{}

func (*stuckReader) Read([]byte) (int, error) { return 0, nil }
