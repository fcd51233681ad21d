package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// MaxRecordBytes bounds one input record across every ingest parser in the
// repository: a JSONL line, an access-log line, or a binary record
// segment. Before this constant the limits disagreed silently
// (8 MiB for text logs, 16 MiB for JSONL), so the same oversized record
// could be a hard error on one path and fine on another; every scanner now
// shares this bound and an over-limit record is an explicit error everywhere.
const MaxRecordBytes = 16 * 1024 * 1024

// ScanBufferSize is the initial buffer handed to the record scanners; they
// grow on demand up to MaxRecordBytes.
const ScanBufferSize = 64 * 1024

// wireDatapoint is the JSONL wire form of a Datapoint. Field names are short
// because exploration datasets can run to millions of lines.
type wireDatapoint struct {
	X  []float64   `json:"x,omitempty"`
	AF [][]float64 `json:"af,omitempty"`
	K  int         `json:"k"`
	A  int         `json:"a"`
	R  float64     `json:"r"`
	P  float64     `json:"p"`
	S  int64       `json:"s,omitempty"`
	T  string      `json:"t,omitempty"`
}

// WriteJSONL serializes the dataset as one JSON object per line.
func (ds Dataset) WriteJSONL(w io.Writer) error {
	jw := NewJSONLWriter(w)
	for i := range ds {
		if err := jw.Write(&ds[i]); err != nil {
			return fmt.Errorf("core: encoding datapoint %d: %w", i, err)
		}
	}
	return jw.Flush()
}

// JSONLWriter streams datapoints as JSONL without materializing a Dataset —
// the converse of ReadJSONLFunc, used by converters that rewrite
// million-line logs record by record.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter wraps w in a buffered JSONL datapoint writer. Call Flush
// when done.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one datapoint as a JSON line.
func (jw *JSONLWriter) Write(d *Datapoint) error {
	wd := wireDatapoint{
		X: d.Context.Features,
		K: d.Context.NumActions,
		A: int(d.Action),
		R: d.Reward,
		P: d.Propensity,
		S: d.Seq,
		T: d.Tag,
	}
	if d.Context.ActionFeatures != nil {
		wd.AF = make([][]float64, len(d.Context.ActionFeatures))
		for j, v := range d.Context.ActionFeatures {
			wd.AF[j] = v
		}
	}
	return jw.enc.Encode(&wd)
}

// Flush drains the write buffer to the underlying writer.
func (jw *JSONLWriter) Flush() error { return jw.bw.Flush() }

// ReadJSONL parses a dataset written by WriteJSONL. Blank lines are skipped.
func ReadJSONL(r io.Reader) (Dataset, error) {
	var ds Dataset
	err := ReadJSONLFunc(r, func(d Datapoint) error {
		ds = append(ds, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadJSONLFunc parses a JSONL dataset incrementally, invoking handle for
// each datapoint as soon as its line is decoded — million-line exploration
// datasets stream through in constant memory instead of materializing a
// slice. Blank lines are skipped. handle returning a non-nil error stops
// the stream and propagates the error with the line number; so does a
// malformed line.
func ReadJSONLFunc(r io.Reader, handle func(Datapoint) error) error {
	if handle == nil {
		return fmt.Errorf("core: nil datapoint handler")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, ScanBufferSize), MaxRecordBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var wd wireDatapoint
		if err := json.Unmarshal(raw, &wd); err != nil {
			return fmt.Errorf("core: line %d: %w", line, err)
		}
		d := Datapoint{
			Context: Context{
				Features:   wd.X,
				NumActions: wd.K,
			},
			Action:     Action(wd.A),
			Reward:     wd.R,
			Propensity: wd.P,
			Seq:        wd.S,
			Tag:        wd.T,
		}
		if wd.AF != nil {
			d.Context.ActionFeatures = make([]Vector, len(wd.AF))
			for j, v := range wd.AF {
				d.Context.ActionFeatures[j] = v
			}
		}
		if err := handle(d); err != nil {
			return fmt.Errorf("core: line %d: handler: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("core: reading dataset: %w", err)
	}
	return nil
}
