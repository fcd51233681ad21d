// Package binrec implements the compact binary harvest-record format: the
// ⟨x, a, r, p, seq, tag⟩ exploration tuple encoded with varints and fixed
// 64-bit floats, length-prefixed per record, and bundled into CRC-guarded
// segments the way auklet's pack engine bundles small objects — because at
// millions of records per second the per-record overhead (JSON field names,
// reflection, one heap allocation per line) dominates the ingest cost.
//
// Wire layout (all integers unsigned LEB128 varints unless noted, floats
// IEEE-754 little-endian fixed64, Seq zigzag varint):
//
//	stream  := header segment*
//	header  := "HRVB" version(1 byte)
//	segment := 'S' count payloadLen crc32(4 bytes LE, IEEE, of payload) payload
//	payload := record*
//	record  := recLen rest                     // recLen = len(rest) in bytes
//	rest    := K A fixed64(R) fixed64(P) zigzag(Seq)
//	           tagLen tagBytes
//	           xLen fixed64*xLen               // shared features
//	           afRows { rowLen fixed64*rowLen }*afRows
//
// Segments are the append unit: a producer seals and appends whole
// segments, so concatenating two streams minus the second header is a valid
// stream, a torn tail is detected by the length prefix and CRC rather than
// misparsed, and a reader can skip a segment it has already folded. The
// version byte guards the record schema: decoders refuse a version they do
// not speak rather than misread state (same rule as the harvestd snapshot
// codec).
//
// Decoding is two steps over caller-owned pooled buffers: Decoder.ReadSegment
// frames and reads one payload into a Segment and checks its CRC;
// Batch.Decode turns a Segment into records, on any goroutine — so one
// reader keeps a stream's segments coming, in order and verified, while
// several workers decode them. Decoder.Next is the two in sequence. After
// warm-up neither allocates per record: feature vectors are carved from the
// batch's reused arena and tag strings are interned. The price is an
// aliasing rule: every slice in a Batch is valid only until the next
// Decode/Next/Reset on that Batch.
package binrec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
)

// Version is the record-schema version this package encodes and decodes.
const Version = 1

// magic identifies a binary harvest-record stream.
const magic = "HRVB"

// headerLen is len(magic) plus the version byte.
const headerLen = len(magic) + 1

// segMarker opens every segment.
const segMarker = 'S'

// MaxSegmentBytes bounds one segment's payload, sharing the repo-wide
// record bound: a corrupt length prefix must not make a decoder allocate
// gigabytes before the CRC check can catch it.
const MaxSegmentBytes = core.MaxRecordBytes

// DefaultSegmentBytes is the encoder's segment-seal threshold. 64 KiB keeps
// segments small enough to stream with low latency in follow mode while
// amortizing the framing overhead over ~1000 records.
const DefaultSegmentBytes = 64 * 1024

// minRecordBytes is the smallest record on the wire: the length prefix, K,
// A, Seq, the tag length and the two vector counts at one byte each, plus
// the two fixed64s.
const minRecordBytes = 7 + 2*8

// MaxSegmentRecords bounds the record count claimed by one segment header;
// with a record costing at least 2 bytes on the wire, a count beyond the
// payload bound is structurally impossible and rejected early.
const MaxSegmentRecords = MaxSegmentBytes

// An Encoder writes datapoints as binary harvest records, buffering the
// current segment in memory and sealing it to the underlying writer when it
// reaches SegmentBytes (or on Flush). Encoders are not safe for concurrent
// use.
type Encoder struct {
	w   io.Writer
	seg []byte // current segment payload
	rec []byte // per-record scratch, reused
	n   int    // records in the current segment
	tmp [binary.MaxVarintLen64]byte
	// SegmentBytes is the seal threshold (default DefaultSegmentBytes).
	// Adjust before the first Write.
	SegmentBytes int
}

// NewEncoder writes the stream header to w and returns an encoder appending
// segments to it.
func NewEncoder(w io.Writer) (*Encoder, error) {
	hdr := [headerLen]byte{}
	copy(hdr[:], magic)
	hdr[len(magic)] = Version
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("binrec: writing header: %w", err)
	}
	return NewAppendEncoder(w), nil
}

// NewAppendEncoder returns an encoder that writes segments without a stream
// header — for appending to a file that already carries one.
func NewAppendEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, SegmentBytes: DefaultSegmentBytes}
}

// Write appends one record to the current segment, sealing the segment to
// the underlying writer when it is full.
func (e *Encoder) Write(d *core.Datapoint) error {
	e.rec = e.appendRecordBody(e.rec[:0], d)
	e.seg = e.appendUvarint(e.seg, uint64(len(e.rec)))
	e.seg = append(e.seg, e.rec...)
	e.n++
	if len(e.seg) >= e.SegmentBytes {
		return e.Flush()
	}
	return nil
}

// appendRecordBody serializes d (without the length prefix) onto buf.
func (e *Encoder) appendRecordBody(buf []byte, d *core.Datapoint) []byte {
	buf = e.appendUvarint(buf, uint64(d.Context.NumActions))
	buf = e.appendUvarint(buf, uint64(d.Action))
	buf = e.appendFixed64(buf, d.Reward)
	buf = e.appendFixed64(buf, d.Propensity)
	n := binary.PutVarint(e.tmp[:], d.Seq)
	buf = append(buf, e.tmp[:n]...)
	buf = e.appendUvarint(buf, uint64(len(d.Tag)))
	buf = append(buf, d.Tag...)
	buf = e.appendUvarint(buf, uint64(len(d.Context.Features)))
	for _, v := range d.Context.Features {
		buf = e.appendFixed64(buf, v)
	}
	buf = e.appendUvarint(buf, uint64(len(d.Context.ActionFeatures)))
	for _, row := range d.Context.ActionFeatures {
		buf = e.appendUvarint(buf, uint64(len(row)))
		for _, v := range row {
			buf = e.appendFixed64(buf, v)
		}
	}
	return buf
}

func (e *Encoder) appendUvarint(buf []byte, v uint64) []byte {
	n := binary.PutUvarint(e.tmp[:], v)
	return append(buf, e.tmp[:n]...)
}

func (e *Encoder) appendFixed64(buf []byte, v float64) []byte {
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(v))
	return append(buf, e.tmp[:8]...)
}

// Flush seals the current segment (if it holds any records) and writes it
// to the underlying writer. Call once more after the last Write; an
// Encoder left unflushed loses its buffered tail.
func (e *Encoder) Flush() error {
	if e.n == 0 {
		return nil
	}
	if len(e.seg) > MaxSegmentBytes {
		return fmt.Errorf("binrec: segment payload %d bytes exceeds %d (one record larger than the record bound?)",
			len(e.seg), MaxSegmentBytes)
	}
	var hdr []byte
	hdr = append(hdr, segMarker)
	n := binary.PutUvarint(e.tmp[:], uint64(e.n))
	hdr = append(hdr, e.tmp[:n]...)
	n = binary.PutUvarint(e.tmp[:], uint64(len(e.seg)))
	hdr = append(hdr, e.tmp[:n]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(e.seg))
	hdr = append(hdr, crc[:]...)
	if _, err := e.w.Write(hdr); err != nil {
		return fmt.Errorf("binrec: writing segment header: %w", err)
	}
	if _, err := e.w.Write(e.seg); err != nil {
		return fmt.Errorf("binrec: writing segment payload: %w", err)
	}
	e.seg = e.seg[:0]
	e.n = 0
	return nil
}

// A Batch is the caller-owned buffer set one decoded segment lands in.
// Points (and every Vector hanging off them) alias the batch's arena:
// they are valid until the next Decode, Next or Reset call with this batch,
// so fold them (or copy them out) before reusing it. The zero value is
// ready to use; reusing one batch across calls is what makes the decode
// path allocation-free.
type Batch struct {
	// Points holds the decoded records of one segment.
	Points []core.Datapoint

	arena core.Arena        // backing store for the vectors and row headers
	tags  map[string]string // tag interning: one allocation per unique tag
}

// Reset empties the batch, keeping its arena and tag intern table for reuse.
func (b *Batch) Reset() {
	b.Points = b.Points[:0]
	b.arena.Reset()
}

// A Segment is one segment in wire form, as Decoder.ReadSegment left it in
// caller-owned storage: CRC-checked, not yet decoded. Batch.Decode copies
// everything out, so it can be refilled once Decode returns. The zero value
// is ready to use; reusing one keeps its payload buffer.
type Segment struct {
	// Records is the record count the segment's header claims.
	Records int

	payload []byte
	index   int   // position in the stream, for error context
	end     int64 // stream offset the segment ends at, for error context
}

// A Decoder reads a binary harvest-record stream segment by segment.
// Decoders are not safe for concurrent use.
type Decoder struct {
	src  io.Reader     // what br reads from; payloads bypass br's buffer
	br   *bufio.Reader // framing reads: marker, varints, crc
	seg  Segment       // what Next reads into
	hdr  bool          // stream header consumed
	pos  int64         // bytes consumed, for error context
	segN int           // segments read, for error context
	// scratch backs the fixed-width header/crc reads; a local array would
	// escape into the io.ReadFull interface call and allocate per segment.
	scratch [8]byte
}

// NewDecoder returns a decoder reading from r. The stream header is checked
// lazily on the first Next, so a follow-mode tail of a file that does not
// exist yet blocks in the reader rather than failing here.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{src: r, br: bufio.NewReader(r)}
}

// Reset redirects the decoder to a new stream, keeping its buffers for reuse.
func (d *Decoder) Reset(r io.Reader) {
	d.src = r
	d.br.Reset(r)
	d.hdr = false
	d.pos = 0
	d.segN = 0
}

// Next decodes the next segment into b (after resetting it): ReadSegment
// into the decoder's own Segment, then b.Decode, with the errors of either.
func (d *Decoder) Next(b *Batch) error {
	if err := d.ReadSegment(&d.seg); err != nil {
		b.Reset()
		return err
	}
	return b.Decode(&d.seg)
}

// ReadSegment reads the next segment into s and verifies its CRC, without
// decoding it. It returns io.EOF at a clean end of stream — after the last
// whole segment, or on an entirely empty input. A stream that stops
// mid-header or mid-segment returns an error wrapping io.ErrUnexpectedEOF
// with the byte offset, so callers can distinguish a torn tail from
// corruption with context.
func (d *Decoder) ReadSegment(s *Segment) error {
	if !d.hdr {
		if err := d.readHeader(); err != nil {
			return err
		}
	}
	marker, err := d.br.ReadByte()
	if err == io.EOF {
		return io.EOF // clean end: no partial segment
	}
	if err != nil {
		return fmt.Errorf("binrec: offset %d: %w", d.pos, err)
	}
	d.pos++
	if marker != segMarker {
		return fmt.Errorf("binrec: offset %d: bad segment marker 0x%02x", d.pos-1, marker)
	}
	count, err := d.readUvarint()
	if err != nil {
		return fmt.Errorf("binrec: segment %d (offset %d): reading record count: %w", d.segN, d.pos, err)
	}
	if count > MaxSegmentRecords {
		return fmt.Errorf("binrec: segment %d (offset %d): record count %d exceeds %d", d.segN, d.pos, count, MaxSegmentRecords)
	}
	payloadLen, err := d.readUvarint()
	if err != nil {
		return fmt.Errorf("binrec: segment %d (offset %d): reading payload length: %w", d.segN, d.pos, err)
	}
	if payloadLen > MaxSegmentBytes {
		return fmt.Errorf("binrec: segment %d (offset %d): payload %d bytes exceeds %d", d.segN, d.pos, payloadLen, MaxSegmentBytes)
	}
	if _, err := io.ReadFull(d.br, d.scratch[:4]); err != nil {
		return fmt.Errorf("binrec: segment %d (offset %d): reading crc: %w", d.segN, d.pos, noEOF(err))
	}
	d.pos += 4
	wantCRC := binary.LittleEndian.Uint32(d.scratch[:4])
	if cap(s.payload) < int(payloadLen) {
		s.payload = make([]byte, payloadLen)
	}
	s.payload = s.payload[:payloadLen]
	// What br already holds, then the rest from the source itself: br is
	// empty by then, and through its buffer the payload would move twice.
	held := 0
	if d.br.Buffered() > 0 {
		held, _ = d.br.Read(s.payload[:min(len(s.payload), d.br.Buffered())]) // serves from the buffer, cannot fail
	}
	if _, err := io.ReadFull(d.src, s.payload[held:]); err != nil {
		return fmt.Errorf("binrec: segment %d (offset %d): reading %d-byte payload: %w", d.segN, d.pos, payloadLen, noEOF(err))
	}
	d.pos += int64(payloadLen)
	if got := crc32.ChecksumIEEE(s.payload); got != wantCRC {
		return fmt.Errorf("binrec: segment %d (offset %d): crc mismatch (got %08x want %08x)", d.segN, d.pos, got, wantCRC)
	}
	s.Records, s.index, s.end = int(count), d.segN, d.pos
	d.segN++
	return nil
}

// Decode turns s into records in b (after resetting it). s has passed its
// CRC, so a failure here is an encoder's fault, not line noise.
func (b *Batch) Decode(s *Segment) error {
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

// readHeader consumes and checks the stream header. An immediate EOF is a
// clean empty stream.
func (d *Decoder) readHeader() error {
	hdr := d.scratch[:headerLen]
	n, err := io.ReadFull(d.br, hdr)
	if err == io.EOF && n == 0 {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("binrec: reading stream header: %w", noEOF(err))
	}
	if string(hdr[:len(magic)]) != magic {
		return fmt.Errorf("binrec: bad magic %q (not a binary harvest-record stream)", hdr[:len(magic)])
	}
	if hdr[len(magic)] != Version {
		return fmt.Errorf("binrec: stream version %d, this decoder speaks %d", hdr[len(magic)], Version)
	}
	d.hdr = true
	d.pos += int64(headerLen)
	return nil
}

// decodeRecord parses one length-prefixed record off the front of rest into
// a new entry of b.Points, returning the remainder. left counts the records
// the segment still claims, this one included.
func (b *Batch) decodeRecord(rest []byte, left uint64) ([]byte, error) {
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

// takeVector decodes a length-prefixed fixed64 vector into the batch arena.
// The length prefix is parsed inline: building a "<what> length" label for
// takeUvarint would concatenate strings on the per-vector hot path.
func (b *Batch) takeVector(rec []byte, what string) (core.Vector, []byte, error) {
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

// internTag returns the string for a tag's bytes, allocating only the first
// time each distinct tag is seen — the map lookup on a []byte key does not
// allocate, so repeated tags are free on the hot path.
func (b *Batch) internTag(raw []byte) string {
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

// readUvarint reads a varint from the buffered reader, tracking the offset.
func (d *Decoder) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, noEOF(err)
	}
	// Track consumed bytes for error context (recompute the varint width).
	n := 1
	for x := v; x >= 0x80; x >>= 7 {
		n++
	}
	d.pos += int64(n)
	return v, nil
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

// noEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF: inside a header or
// segment, running out of bytes is a torn write or truncation, never a
// clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
