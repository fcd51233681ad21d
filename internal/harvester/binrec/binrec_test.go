package binrec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/stats"
)

// goldenDataset is a small dataset exercising every field of the record
// schema: typed tags, negative seq, shared and per-action features.
func goldenDataset() core.Dataset {
	return core.Dataset{
		{
			Context:    core.Context{Features: core.Vector{1, 2}, NumActions: 2},
			Action:     1,
			Reward:     0.5,
			Propensity: 0.25,
			Seq:        7,
			Tag:        "t",
		},
		{
			Context: core.Context{
				ActionFeatures: []core.Vector{{1}, {2}, {0.5}},
				NumActions:     3,
			},
			Action:     0,
			Reward:     -1.5,
			Propensity: 1,
			Seq:        -3,
		},
	}
}

func encodeAll(t testing.TB, ds core.Dataset, segmentBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if segmentBytes > 0 {
		enc.SegmentBytes = segmentBytes
	}
	for i := range ds {
		if err := enc.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeAll(t testing.TB, wire []byte) core.Dataset {
	t.Helper()
	dec := NewDecoder(bytes.NewReader(wire))
	var out core.Dataset
	var b Batch
	for {
		err := dec.Next(&b)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, clonePoints(b.Points)...)
	}
}

// clonePoints deep-copies points out of a batch's arenas: the batch is reused.
func clonePoints(pts []core.Datapoint) core.Dataset {
	out := make(core.Dataset, len(pts))
	for i, d := range pts {
		d.Context.Features = d.Context.Features.Clone()
		if d.Context.ActionFeatures != nil {
			rows := make([]core.Vector, len(d.Context.ActionFeatures))
			for j, row := range d.Context.ActionFeatures {
				rows[j] = row.Clone()
			}
			d.Context.ActionFeatures = rows
		}
		out[i] = d
	}
	return out
}

// TestGoldenWireBytes pins the v1 wire format byte for byte. If this test
// fails, the format changed: bump Version and teach the decoder both
// schemas instead of silently re-pinning.
func TestGoldenWireBytes(t *testing.T) {
	got := encodeAll(t, goldenDataset(), 0)
	const want = "" +
		// stream header: magic "HRVB", version 1
		"4852564201" +
		// segment: marker 'S', count=2, payloadLen=0x5a, crc32(payload) LE
		"53025a" + "1fb5f141" +
		// record 1: len=0x27, K=2 A=1 R=0.5 P=0.25 zigzag(7)=0x0e tag "t"
		// x=[1,2] afRows=0
		"270201" + "000000000000e03f" + "000000000000d03f" + "0e" + "0174" +
		"02" + "000000000000f03f" + "0000000000000040" + "00" +
		// record 2: len=0x31, K=3 A=0 R=-1.5 P=1 zigzag(-3)=0x05 tag ""
		// x=[] afRows=3: [1],[2],[0.5]
		"310300" + "000000000000f8bf" + "000000000000f03f" + "05" + "00" + "00" +
		"03" + "01000000000000f03f" + "010000000000000040" + "01000000000000e03f"
	if hex.EncodeToString(got) != want {
		t.Fatalf("golden wire bytes drifted:\n got  %s\n want %s", hex.EncodeToString(got), want)
	}
}

// randomDataset fabricates a dataset with the full field variety: shared
// and per-action features, tags from a small set, negative rewards and seqs.
func randomDataset(seed int64, n int) core.Dataset {
	r := stats.NewRand(seed)
	tags := []string{"", "nginx", "cachelog", "sim"}
	ds := make(core.Dataset, n)
	for i := range ds {
		k := 2 + r.Intn(4)
		ctx := core.Context{NumActions: k}
		if r.Float64() < 0.7 {
			x := make(core.Vector, 1+r.Intn(6))
			for j := range x {
				x[j] = r.NormFloat64()
			}
			ctx.Features = x
		}
		if r.Float64() < 0.5 {
			rows := make([]core.Vector, k)
			for a := range rows {
				row := make(core.Vector, 1+r.Intn(4))
				for j := range row {
					row[j] = r.NormFloat64()
				}
				rows[a] = row
			}
			ctx.ActionFeatures = rows
		}
		ds[i] = core.Datapoint{
			Context:    ctx,
			Action:     core.Action(r.Intn(k)),
			Reward:     r.NormFloat64(),
			Propensity: 0.01 + 0.99*r.Float64(),
			Seq:        int64(i) - int64(n/2),
			Tag:        tags[r.Intn(len(tags))],
		}
	}
	return ds
}

// TestRoundTrip50Seeds: encode → decode reproduces the dataset exactly and
// re-encoding the decoded data reproduces the wire bytes exactly, across 50
// seeded datasets and several segment sizes.
func TestRoundTrip50Seeds(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		segBytes := []int{0, 256, 4096}[seed%3]
		ds := randomDataset(seed, 40+int(seed))
		wire := encodeAll(t, ds, segBytes)
		got := decodeAll(t, wire)
		if !reflect.DeepEqual(ds, got) {
			t.Fatalf("seed %d: decoded dataset diverged", seed)
		}
		rewire := encodeAll(t, got, segBytes)
		if !bytes.Equal(wire, rewire) {
			t.Fatalf("seed %d: re-encode not byte-exact (%d vs %d bytes)", seed, len(wire), len(rewire))
		}
	}
}

func TestEmptyStream(t *testing.T) {
	// Entirely empty input: clean EOF (an empty dataset, not corruption).
	dec := NewDecoder(strings.NewReader(""))
	var b Batch
	if err := dec.Next(&b); err != io.EOF {
		t.Fatalf("empty input: got %v, want io.EOF", err)
	}
	// Header-only stream (encoder flushed with no records): also clean.
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec = NewDecoder(bytes.NewReader(buf.Bytes()))
	if err := dec.Next(&b); err != io.EOF {
		t.Fatalf("header-only stream: got %v, want io.EOF", err)
	}
}

// TestAppendFraming: segments written by NewAppendEncoder concatenate onto
// an existing stream and decode as one — the append-friendly property a
// log-rotating producer relies on.
func TestAppendFraming(t *testing.T) {
	ds := randomDataset(3, 30)
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := enc.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	app := NewAppendEncoder(&buf)
	for i := 10; i < len(ds); i++ {
		if err := app.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Flush(); err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, buf.Bytes())
	if len(got) != len(ds) {
		t.Fatalf("decoded %d records, want %d", len(got), len(ds))
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatal("appended stream diverged from source dataset")
	}
}

// TestTruncatedStream: cutting the stream anywhere after the header yields
// either a clean EOF (cut exactly between segments) or an error that names
// the offset — never a silent partial decode of the damaged segment.
func TestTruncatedStream(t *testing.T) {
	ds := randomDataset(7, 25)
	wire := encodeAll(t, ds, 512)
	full := decodeAll(t, wire)
	for cut := headerLen + 1; cut < len(wire); cut += 97 {
		dec := NewDecoder(bytes.NewReader(wire[:cut]))
		var b Batch
		var n int
		var err error
		for {
			if err = dec.Next(&b); err != nil {
				break
			}
			n += len(b.Points)
		}
		if err == io.EOF {
			if n >= len(full) {
				t.Fatalf("cut %d: clean EOF with all %d records from a truncated stream", cut, n)
			}
			continue
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("cut %d: error %q carries no offset context", cut, err)
		}
	}
	// A header torn mid-magic is unexpected EOF, not clean.
	dec := NewDecoder(bytes.NewReader(wire[:2]))
	var b Batch
	if err := dec.Next(&b); err == nil || err == io.EOF {
		t.Fatalf("torn header: got %v, want unexpected-EOF error", err)
	}
}

// TestCorruptStream: flipped payload bytes trip the segment CRC; a bad
// magic, version, or marker is refused with a descriptive error.
func TestCorruptStream(t *testing.T) {
	ds := randomDataset(9, 10)
	wire := encodeAll(t, ds, 0)

	flip := append([]byte(nil), wire...)
	flip[len(flip)-3] ^= 0xff // inside the single segment's payload
	dec := NewDecoder(bytes.NewReader(flip))
	var b Batch
	if err := dec.Next(&b); err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("payload corruption: got %v, want crc mismatch", err)
	}

	for _, tc := range []struct {
		name string
		mut  func([]byte)
		want string
	}{
		{"magic", func(w []byte) { w[0] = 'X' }, "bad magic"},
		{"version", func(w []byte) { w[4] = 99 }, "version 99"},
		{"marker", func(w []byte) { w[5] = 'Z' }, "bad segment marker"},
	} {
		mut := append([]byte(nil), wire...)
		tc.mut(mut)
		dec := NewDecoder(bytes.NewReader(mut))
		if err := dec.Next(&b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s corruption: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestOversizeRejected: a record pushing a segment past MaxSegmentBytes is
// refused at encode time, and a forged header claiming an oversized payload
// or impossible record count is refused at decode time before any
// allocation that size.
func TestOversizeRejected(t *testing.T) {
	enc := NewAppendEncoder(io.Discard)
	enc.SegmentBytes = 1 << 62 // never auto-seal: force one giant segment
	huge := core.Datapoint{
		Context:    core.Context{Features: make(core.Vector, MaxSegmentBytes/8+2), NumActions: 2},
		Propensity: 0.5,
	}
	if err := enc.Write(&huge); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized segment: got %v, want exceeds error", err)
	}

	forged := []byte(magic)
	forged = append(forged, Version, segMarker,
		0x01,                         // count = 1
		0xff, 0xff, 0xff, 0xff, 0x7f, // payloadLen far past MaxSegmentBytes
	)
	dec := NewDecoder(bytes.NewReader(forged))
	var b Batch
	if err := dec.Next(&b); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("forged payload length: got %v, want exceeds error", err)
	}

	// A checksummed one-record payload under a header claiming the largest
	// count: the batch is sized from what the payload can hold, not from the
	// claim, and the missing records are an error. The smallest record there
	// is — no tag, no vectors, one-byte varints — is what bounds that.
	smallest := encodeAll(t, core.Dataset{{Propensity: 1}}, 0)[headerLen:]
	if payload := smallest[1+1+1+4:]; len(payload) != minRecordBytes {
		t.Fatalf("smallest record is %d bytes on the wire, minRecordBytes says %d", len(payload), minRecordBytes)
	}
	forged = append([]byte(magic), Version, segMarker)
	forged = binary.AppendUvarint(forged, MaxSegmentRecords)
	forged = append(forged, smallest[2:]...) // payloadLen, crc, payload
	dec.Reset(bytes.NewReader(forged))
	if err := dec.Next(&b); err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("forged record count: got %v, want an error at record 1", err)
	}
	if cap(b.Points) > 64 {
		t.Errorf("forged record count sized the batch for %d points", cap(b.Points))
	}
}

// TestRoundTripVectorShapes: the vector copy is exact at every length around
// its four-float stride, for the 8-upstream netlb context, for empty shared
// and per-action vectors, and for a vector that runs to the last byte of the
// record, the segment and the stream.
func TestRoundTripVectorShapes(t *testing.T) {
	ramp := func(n int, from float64) core.Vector {
		if n == 0 {
			return nil // what an empty vector decodes to
		}
		v := make(core.Vector, n)
		for i := range v {
			v[i] = from + float64(i)/8
		}
		return v
	}
	var ds core.Dataset
	for n := 0; n <= 13; n++ {
		ds = append(ds, core.Datapoint{
			Context: core.Context{
				Features:       ramp(n, 1),
				ActionFeatures: []core.Vector{ramp(13-n, -2), nil, ramp(n, 0.5)},
				NumActions:     3,
			},
			Action: 1, Reward: float64(n), Propensity: 0.5, Seq: int64(n),
		})
	}
	conns := []int{3, 0, 7, 1, 4, 4, 2, 9}
	ds = append(ds,
		core.Datapoint{Context: lbsim.BuildContext(conns, 0, 1), Action: 7, Reward: 0.25, Propensity: 0.125, Seq: 14},
		core.Datapoint{Context: core.Context{NumActions: 2}, Propensity: 1, Seq: 15}, // no vectors at all
		// Last: the final row ends the record, the payload and the stream.
		core.Datapoint{Context: core.Context{ActionFeatures: []core.Vector{nil, ramp(9, 3)}, NumActions: 2}, Propensity: 1, Seq: 16},
	)
	for _, segBytes := range []int{0, 64} { // one segment, and one per record
		wire := encodeAll(t, ds, segBytes)
		if got := decodeAll(t, wire); !reflect.DeepEqual(ds, got) {
			t.Fatalf("segment bytes %d: decoded dataset diverged\n got %+v\nwant %+v", segBytes, got, ds)
		}
	}
}

// TestDecodeZeroAllocs pins the tentpole property: steady-state decoding
// performs zero per-record heap allocations (arena-carved vectors, interned
// tags, reused segment buffer).
func TestDecodeZeroAllocs(t *testing.T) {
	ds := randomDataset(11, 512)
	for i := range ds {
		ds[i].Tag = "steady" // tag interning: hot path never allocates
	}
	wire := encodeAll(t, ds, 0)
	dec := NewDecoder(bytes.NewReader(wire))
	var b Batch
	r := bytes.NewReader(wire)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(wire)
		dec.Reset(r)
		for {
			err := dec.Next(&b)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("decode allocated %.1f times per pass, want 0", allocs)
	}
}

// TestDecodeAwayFromTheReader: the segments one goroutine reads off a stream
// decode on others, each into its own Batch, to the records Next yields —
// and everything a decode needs lives with the Batch, the tag intern table
// included: a warm Batch decodes tagged records without allocating, whatever
// Decoder read them.
func TestDecodeAwayFromTheReader(t *testing.T) {
	wire := encodeAll(t, randomDataset(17, 400), 512)
	want := decodeAll(t, wire)
	dec := NewDecoder(bytes.NewReader(wire))
	var segs []*Segment
	for {
		s := new(Segment)
		err := dec.ReadSegment(s)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, s)
	}
	const workers = 3
	if len(segs) < 10*workers {
		t.Fatalf("%d segments: too few", len(segs))
	}
	got := make([]core.Dataset, len(segs))
	batches := make([]Batch, workers)
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(segs); i += workers {
				if err := batches[w].Decode(segs[i]); err != nil {
					t.Error(err)
					return
				}
				got[i] = clonePoints(batches[w].Points)
			}
		}(w)
	}
	wg.Wait()
	for w := range batches {
		if allocs := testing.AllocsPerRun(20, func() { _ = batches[w].Decode(segs[w]) }); allocs > 0 {
			t.Errorf("a warm batch allocated %.1f times decoding a segment of %d tagged records", allocs, segs[w].Records)
		}
	}
	var flat core.Dataset
	for _, ds := range got {
		flat = append(flat, ds...)
	}
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("%d records decoded segment by segment differ from Next's %d", len(flat), len(want))
	}
}

// TestBatchReuseAcrossSizes: a batch shrinks and grows across segments of
// very different shapes without mixing stale state into later decodes.
func TestBatchReuseAcrossSizes(t *testing.T) {
	big := randomDataset(13, 200)
	small := core.Dataset{{
		Context:    core.Context{NumActions: 1},
		Propensity: 1,
	}}
	dec := NewDecoder(bytes.NewReader(encodeAll(t, big, 0)))
	var b Batch
	if err := dec.Next(&b); err != nil {
		t.Fatal(err)
	}
	dec.Reset(bytes.NewReader(encodeAll(t, small, 0)))
	if err := dec.Next(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(b.Points))
	}
	got := b.Points[0]
	if got.Context.Features != nil || got.Context.ActionFeatures != nil || got.Tag != "" {
		t.Errorf("stale batch state leaked into fresh decode: %+v", got)
	}
}

// TestErrorContextNamesRecord: a record-level structural error names the
// segment, record index, and offset.
func TestErrorContextNamesRecord(t *testing.T) {
	// Build a valid one-record segment, then lie about the record count.
	ds := goldenDataset()[:1]
	wire := encodeAll(t, ds, 0)
	mut := append([]byte(nil), wire...)
	mut[headerLen+1] = 2 // segment record count 1 → 2 (count is 1 byte here)
	dec := NewDecoder(bytes.NewReader(mut))
	var b Batch
	err := dec.Next(&b)
	if err == nil {
		t.Fatal("want error for forged record count")
	}
	for _, want := range []string{"segment 0", "record 1", "offset"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should contain %q", err, want)
		}
	}
}

// TestVersionedHeaderConstants guards accidental drift of the constants the
// golden test depends on.
func TestVersionedHeaderConstants(t *testing.T) {
	if magic != "HRVB" || Version != 1 || headerLen != 5 {
		t.Fatalf("header constants drifted: magic=%q version=%d headerLen=%d", magic, Version, headerLen)
	}
	if MaxSegmentBytes != core.MaxRecordBytes {
		t.Fatalf("MaxSegmentBytes %d diverged from core.MaxRecordBytes %d", MaxSegmentBytes, core.MaxRecordBytes)
	}
}

func Example() {
	ds := core.Dataset{{
		Context:    core.Context{Features: core.Vector{3, 1}, NumActions: 2},
		Action:     1,
		Reward:     0.004,
		Propensity: 0.5,
	}}
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf)
	for i := range ds {
		_ = enc.Write(&ds[i])
	}
	_ = enc.Flush()

	dec := NewDecoder(&buf)
	var b Batch
	for {
		if err := dec.Next(&b); err == io.EOF {
			break
		}
		for i := range b.Points {
			fmt.Printf("a=%d r=%g p=%g\n", b.Points[i].Action, b.Points[i].Reward, b.Points[i].Propensity)
		}
	}
	// Output:
	// a=1 r=0.004 p=0.5
}
