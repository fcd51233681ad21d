package binrec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/core"
)

// forgeStream frames payload as a one-segment stream claiming count records,
// with the CRC a faithful encoder would have written: what is wrong with the
// payload is then for the record decoder to find, not for the CRC check.
func forgeStream(count uint64, payload []byte) []byte {
	wire := append([]byte(magic), Version, segMarker)
	wire = binary.AppendUvarint(wire, count)
	wire = binary.AppendUvarint(wire, uint64(len(payload)))
	wire = binary.LittleEndian.AppendUint32(wire, crc32.ChecksumIEEE(payload))
	return append(wire, payload...)
}

// decodeStream reads data to its end or first error, by Next or by the two
// steps Next is made of (ReadSegment on the stream, Decode wherever), and
// returns every point decoded on the way, re-encoded — which compares NaNs
// bit for bit — and the error text.
func decodeStream(t *testing.T, data []byte, twoStep bool) (reencoded []byte, errText string) {
	dec := NewDecoder(bytes.NewReader(data))
	var b Batch
	var seg Segment
	var out bytes.Buffer
	enc := NewAppendEncoder(&out)
	for records := 0; ; {
		var err error
		if twoStep {
			if err = dec.ReadSegment(&seg); err == nil {
				err = b.Decode(&seg)
			}
		} else {
			err = dec.Next(&b)
		}
		if err != nil {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			return out.Bytes(), err.Error()
		}
		if records += len(b.Points); records > len(data) {
			t.Fatalf("%d records decoded from %d input bytes", records, len(data))
		}
		for i := range b.Points {
			_ = b.Points[i].Validate() // must not panic on any decoded point
			if err := enc.Write(&b.Points[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzBinRecDecode feeds arbitrary bytes to the decoder: it must terminate
// with io.EOF or a descriptive error — never panic, never allocate a buffer
// sized by an unvalidated length prefix — and reading a segment raw and
// decoding it separately must yield the points and the error text of Next.
// It is also differential: every segment read must decode by Batch.Decode
// to the points and the error text of the reference decoder (refBatch).
// Valid streams are seeded so the fuzzer mutates real framing, not just
// garbage; and since a mutated payload hardly ever passes its CRC, the input
// is also tried as the payload of a segment framed with the right one.
func FuzzBinRecDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte{1, 0x7f, 0}) // as a payload: one record, its length beyond the segment
	for _, seed := range []int64{1, 2} {
		ds := randomDataset(seed, 8)
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf)
		if err != nil {
			f.Fatal(err)
		}
		enc.SegmentBytes = 128
		for i := range ds {
			if err := enc.Write(&ds[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) > 0 {
			inputs = append(inputs, forgeStream(uint64(data[0]), data[1:]))
		}
		for _, in := range inputs {
			// Ends in io.EOF or rejected with context: both acceptable outcomes.
			pts, errText := decodeStream(t, in, false)
			pts2, errText2 := decodeStream(t, in, true)
			if errText != errText2 || !bytes.Equal(pts, pts2) {
				t.Fatalf("Next: %d bytes of points, then %q; ReadSegment+Decode: %d bytes, then %q", len(pts), errText, len(pts2), errText2)
			}
			checkAgainstReference(t, in)
		}
	})
}

// checkAgainstReference decodes every segment of data that ReadSegment
// yields twice, into one reused Batch and one reused refBatch, and requires
// the same error text and the same points — those decoded ahead of a failing
// record included — compared re-encoded, so NaNs compare bit for bit.
func checkAgainstReference(t *testing.T, data []byte) {
	dec := NewDecoder(bytes.NewReader(data))
	var seg Segment
	var b Batch
	var ref refBatch
	for i := 0; dec.ReadSegment(&seg) == nil; i++ {
		err, refErr := b.Decode(&seg), ref.Decode(&seg)
		got, want := encodePoints(t, b.Points), encodePoints(t, ref.Points)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !bytes.Equal(got, want) {
			t.Fatalf("segment %d: Decode gave %d points (%d bytes), then %v; the reference %d points (%d bytes), then %v",
				i, len(b.Points), len(got), err, len(ref.Points), len(want), refErr)
		}
	}
}

// encodePoints is pts in wire form, one segment, no stream header.
func encodePoints(t *testing.T, pts []core.Datapoint) []byte {
	var out bytes.Buffer
	enc := NewAppendEncoder(&out)
	for i := range pts {
		if err := enc.Write(&pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzBinRecRoundTrip mutates a scalar record through encode → decode →
// re-encode, checking byte-exactness of the second encoding.
func FuzzBinRecRoundTrip(f *testing.F) {
	f.Add(int64(2), uint8(0), 0.5, 0.25, int64(7), "t")
	f.Add(int64(5), uint8(4), -1.5, 1.0, int64(-9), "")
	f.Fuzz(func(t *testing.T, k int64, a uint8, reward, prop float64, seq int64, tag string) {
		if k < 1 || k > 64 {
			return
		}
		d := core.Datapoint{
			Context: core.Context{
				Features:   core.Vector{reward, prop, float64(seq)},
				NumActions: int(k),
			},
			Action:     core.Action(a),
			Reward:     reward,
			Propensity: prop,
			Seq:        seq,
			Tag:        tag,
		}
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Write(&d); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()

		dec := NewDecoder(bytes.NewReader(wire))
		var b Batch
		if err := dec.Next(&b); err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if len(b.Points) != 1 {
			t.Fatalf("got %d points, want 1", len(b.Points))
		}
		var buf2 bytes.Buffer
		enc2, err := NewEncoder(&buf2)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc2.Write(&b.Points[0]); err != nil {
			t.Fatal(err)
		}
		if err := enc2.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, buf2.Bytes()) {
			t.Fatalf("round trip not byte-exact:\n %x\n %x", wire, buf2.Bytes())
		}
	})
}

// refBatch is the reference decoder FuzzBinRecDecode holds Batch.Decode to:
// the record decoder binrec shipped before the straight-line pass, kept
// verbatim below (receiver renamed) — one small call per field, an error
// checked after each, the Datapoint appended, one arena carve per vector.
type refBatch Batch

func (b *refBatch) Reset() {
	b.Points = b.Points[:0]
	b.arena.Reset()
}

func (b *refBatch) Decode(s *Segment) error {
	b.Reset()
	// Size the batch from the header instead of by doubling: the payload
	// cannot hold more records than payloadLen / minRecordBytes or more
	// floats than payloadLen / 8, whatever count says.
	count, payloadLen := uint64(s.Records), uint64(len(s.payload))
	if want := int(min(count, payloadLen/minRecordBytes)); want > cap(b.Points) {
		b.Points = make([]core.Datapoint, 0, (want+63)&^63)
	}
	b.arena.Grow(int(payloadLen/8), 0)
	rest := s.payload
	for i := uint64(0); i < count; i++ {
		var err error
		rest, err = b.decodeRecord(rest, count-i)
		if err != nil {
			return fmt.Errorf("binrec: segment %d record %d (offset %d): %w", s.index, i, s.end, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("binrec: segment %d (offset %d): %d trailing payload bytes after %d records", s.index, s.end, len(rest), count)
	}
	return nil
}

func (b *refBatch) decodeRecord(rest []byte, left uint64) ([]byte, error) {
	recLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("truncated record length prefix")
	}
	rest = rest[n:]
	if recLen > uint64(len(rest)) {
		return nil, fmt.Errorf("record length %d exceeds %d remaining payload bytes", recLen, len(rest))
	}
	rec, rest := rest[:recLen], rest[recLen:]

	k, rec, err := takeUvarint(rec, "num_actions")
	if err != nil {
		return nil, err
	}
	a, rec, err := takeUvarint(rec, "action")
	if err != nil {
		return nil, err
	}
	reward, rec, err := takeFixed64(rec, "reward")
	if err != nil {
		return nil, err
	}
	prop, rec, err := takeFixed64(rec, "propensity")
	if err != nil {
		return nil, err
	}
	seq, n := binary.Varint(rec)
	if n <= 0 {
		return nil, fmt.Errorf("truncated seq")
	}
	rec = rec[n:]
	tagLen, rec, err := takeUvarint(rec, "tag length")
	if err != nil {
		return nil, err
	}
	if tagLen > uint64(len(rec)) {
		return nil, fmt.Errorf("tag length %d exceeds %d remaining record bytes", tagLen, len(rec))
	}
	tag := ""
	if tagLen > 0 {
		tag = b.internTag(rec[:tagLen])
		rec = rec[tagLen:]
	}
	features, rec, err := b.takeVector(rec, "features")
	if err != nil {
		return nil, err
	}
	afRows, rec, err := takeUvarint(rec, "action-feature row count")
	if err != nil {
		return nil, err
	}
	// Each row costs >= 1 byte; an impossible count dies here, not in make.
	if afRows > uint64(len(rec)) {
		return nil, fmt.Errorf("action-feature row count %d exceeds %d remaining record bytes", afRows, len(rec))
	}
	var af []core.Vector
	if afRows > 0 {
		// Records of one stream share a shape: when the row headers run out,
		// make room for this many per record left (a row costs a byte, so
		// never more than the bytes left), not by doubling.
		b.arena.Grow(0, int(min(afRows*left, uint64(len(rec)+len(rest)))))
		af = b.arena.Rows(int(afRows))
		for j := range af {
			af[j], rec, err = b.takeVector(rec, "action-feature row")
			if err != nil {
				return nil, err
			}
		}
	}
	if len(rec) != 0 {
		return nil, fmt.Errorf("%d trailing bytes in record", len(rec))
	}
	b.Points = append(b.Points, core.Datapoint{
		Context: core.Context{
			Features:       features,
			ActionFeatures: af,
			NumActions:     int(k),
		},
		Action:     core.Action(a),
		Reward:     reward,
		Propensity: prop,
		Seq:        seq,
		Tag:        tag,
	})
	return rest, nil
}

func (b *refBatch) takeVector(rec []byte, what string) (core.Vector, []byte, error) {
	n, w := binary.Uvarint(rec)
	if w <= 0 {
		return nil, nil, fmt.Errorf("truncated %s length", what)
	}
	rec = rec[w:]
	if n > uint64(len(rec))/8 { // not n*8: a huge n must not overflow the check
		return nil, nil, fmt.Errorf("%s length %d exceeds %d remaining record bytes", what, n, len(rec))
	}
	if n == 0 {
		return nil, rec, nil
	}
	v := b.arena.Floats(int(n))
	// The source is bounded once and both loops carry their bounds in the
	// condition, so the copy compiles without a per-element slice-and-check;
	// four floats a trip because on short vectors the trips are the cost.
	dst, src := v, rec[:n*8]
	for len(dst) >= 4 && len(src) >= 32 {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(src[0:8]))
		dst[1] = math.Float64frombits(binary.LittleEndian.Uint64(src[8:16]))
		dst[2] = math.Float64frombits(binary.LittleEndian.Uint64(src[16:24]))
		dst[3] = math.Float64frombits(binary.LittleEndian.Uint64(src[24:32]))
		dst, src = dst[4:], src[32:]
	}
	for i := 0; i < len(dst) && len(src) >= 8; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
	return v, rec[n*8:], nil
}

func (b *refBatch) internTag(raw []byte) string {
	if s, ok := b.tags[string(raw)]; ok {
		return s
	}
	if b.tags == nil {
		b.tags = make(map[string]string)
	}
	s := string(raw)
	b.tags[s] = s
	return s
}

func takeUvarint(rec []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated %s", what)
	}
	return v, rec[n:], nil
}

func takeFixed64(rec []byte, what string) (float64, []byte, error) {
	if len(rec) < 8 {
		return 0, nil, fmt.Errorf("truncated %s", what)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(rec)), rec[8:], nil
}
