// Command recconv converts harvest-record files between the text formats
// (nginx-style access logs, core JSONL datasets) and the binrec binary
// format harvestd's bulk ingest path reads. The usual direction is
// text → binary — packing rotated logs for fast replay into a daemon
// (harvestd -bin, or POST /ingest?format=bin) — with binary → JSONL
// available for inspecting a packed file with text tools.
//
// Usage:
//
//	recconv [-from nginx|jsonl|bin] [-to bin|jsonl] [-types N]
//	        [-segment N] [-append] [-o PATH] [INPUT]
//
// INPUT defaults to stdin and -o to stdout. -from defaults to jsonl and
// -to to bin. -types is the typed-routing context width for nginx input.
// -append writes binary output without the stream header, producing bytes
// suitable for appending to an existing binrec file; -segment overrides
// the segment-seal threshold in bytes.
//
// Conversion is strict: a malformed input line or a non-harvestable access
// entry (non-2xx, missing propensity) aborts with the offending line
// number. Silent loss in a batch conversion would bias every estimate
// computed downstream, so there is no tolerant mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/harvester"
	"repro/internal/harvester/binrec"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "recconv:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("recconv", flag.ContinueOnError)
	from := fs.String("from", "jsonl", "input format: nginx | jsonl | bin")
	to := fs.String("to", "bin", "output format: bin | jsonl")
	types := fs.Int("types", 1, "request types in nginx input (typed routing contexts)")
	segment := fs.Int("segment", 0, "binary segment-seal threshold in bytes (0 = default)")
	appendMode := fs.Bool("append", false, "omit the binary stream header (output appends to an existing file)")
	out := fs.String("o", "", "output path (empty = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %v", fs.Args())
	}

	in := stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // read-only; close error unactionable
		in = f
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		w = f
		defer func() {
			// Best effort on the error path; the success path closes below.
			_ = f.Close()
		}()
	}

	emit, finish, err := newEmitter(w, *to, *segment, *appendMode)
	if err != nil {
		return err
	}
	n, err := convert(in, *from, *types, emit)
	if err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	if f, ok := w.(*os.File); ok && *out != "" {
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: %w", *out, err)
		}
	}
	fmt.Fprintf(os.Stderr, "recconv: %d records %s -> %s\n", n, *from, *to)
	return nil
}

// newEmitter builds the output side: a per-datapoint write function plus a
// finish function flushing any buffered tail.
func newEmitter(w io.Writer, to string, segment int, appendMode bool) (func(*core.Datapoint) error, func() error, error) {
	switch to {
	case "bin":
		var enc *binrec.Encoder
		if appendMode {
			enc = binrec.NewAppendEncoder(w)
		} else {
			var err error
			if enc, err = binrec.NewEncoder(w); err != nil {
				return nil, nil, err
			}
		}
		if segment > 0 {
			enc.SegmentBytes = segment
		}
		return enc.Write, enc.Flush, nil
	case "jsonl":
		jw := core.NewJSONLWriter(w)
		return jw.Write, jw.Flush, nil
	default:
		return nil, nil, fmt.Errorf("unknown output format %q (want bin | jsonl)", to)
	}
}

// convert streams the input format into emit, returning the record count.
func convert(in io.Reader, from string, types int, emit func(*core.Datapoint) error) (int64, error) {
	var n int64
	switch from {
	case "nginx":
		var b harvester.NginxBatch
		lr := harvester.NewLineReader(in)
		for lr.Fill() {
			for lr.Next() {
				b.Reset()
				ok, err := b.Append(lr.Line(), types, n)
				if err != nil {
					return n, fmt.Errorf("line %d: %w", lr.LineNo(), err)
				}
				if !ok {
					return n, fmt.Errorf("line %d: entry carries no harvestable datapoint", lr.LineNo())
				}
				if err := emit(&b.Points[0]); err != nil {
					return n, err
				}
				n++
			}
		}
		return n, lr.Err()
	case "jsonl":
		err := core.ReadJSONLFunc(in, func(d core.Datapoint) error {
			n++
			return emit(&d)
		})
		return n, err
	case "bin":
		dec := binrec.NewDecoder(in)
		var b binrec.Batch
		for {
			err := dec.Next(&b)
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			for i := range b.Points {
				if err := emit(&b.Points[i]); err != nil {
					return n, err
				}
				n++
			}
		}
	default:
		return 0, fmt.Errorf("unknown input format %q (want nginx | jsonl | bin)", from)
	}
}
