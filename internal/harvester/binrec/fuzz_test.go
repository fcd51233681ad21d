package binrec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
		}
	})
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
