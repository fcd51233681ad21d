// Package harvester implements the paper's three-step methodology (§3):
//
//  1. Scavenge logs from an existing (live) system and extract ⟨x, a, r⟩
//     for each request — the parser for Nginx-style access logs (the
//     netlb proxy's format) lives here; a cache's eviction and access logs
//     are joined in memory (HarvestEvictions).
//  2. Infer the probability p of each decision — either known from code
//     inspection (the log carries it), estimated empirically from action
//     frequencies, or learned by a regression on ⟨x, a⟩ (multinomial
//     logistic regression).
//  3. Evaluate/optimize a policy offline on the resulting ⟨x, a, r, p⟩
//     dataset — glue to the ope and learn packages.
//
// It also implements the paper's look-ahead reward reconstruction for
// caching: "Determining the next time an evicted item is accessed (the
// reward) ... we reconstruct this information during step 1 by looking
// ahead in the logs to when the item next appears."
package harvester

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"repro/internal/core"
	"repro/internal/lbsim"
)

// AccessEntry is one parsed Nginx-style access-log line from the netlb
// proxy (combined format plus rt=/upstream=/conns=/prop= extensions).
type AccessEntry struct {
	Remote      string
	Time        time.Time
	Method      string
	Path        string
	Proto       string
	Status      int
	Bytes       int64
	UserAgent   string
	RequestTime float64 // seconds
	Upstream    int
	Conns       []int
	Propensity  float64
	// Type is the request class (netlb typed routing), or -1 when the log
	// carries none.
	Type int
}

const nginxTimeLayout = "02/Jan/2006:15:04:05 -0700"

// ParseNginxLine parses one access-log line.
func ParseNginxLine(line string) (*AccessEntry, error) {
	e := new(AccessEntry)
	var memo timeMemo
	if err := parseNginx(line, e, &memo); err != nil {
		return nil, err
	}
	return e, nil
}

// timeMemo remembers the last timestamp that parsed. A log carries
// thousands of lines per second-resolution timestamp, so validating the
// next line's is usually a compare.
type timeMemo struct {
	raw [32]byte
	n   int // 0: nothing remembered
	t   time.Time
}

func (m *timeMemo) parse(ts string) (time.Time, error) {
	if ts == string(m.raw[:m.n]) {
		return m.t, nil
	}
	t, err := time.Parse(nginxTimeLayout, ts)
	if err == nil && len(ts) <= len(m.raw) {
		m.n, m.t = copy(m.raw[:], ts), t
	}
	return t, err
}

// Byte classes of the scanner. Every byte at or above utf8.RuneSelf is
// classed as whitespace; whether the rune there is one, spaceWidth decides.
const (
	clsBlank uint8 = 1 << iota // the five bytes a regexp's \s matches: they end a head token
	clsSpace                   // what strings.Fields splits the extras on: blank and \v
)

var byteClass = func() (t [256]uint8) {
	for _, c := range " \t\n\f\r" {
		t[c] = clsBlank | clsSpace
	}
	t['\v'] = clsSpace
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = clsSpace
	}
	return t
}()

// parseNginx scans one line left to right, once, into e, reusing e.Conns'
// capacity. The text fields it sets are substrings of line. The grammar is
//
//	remote - - [time] "METHOD path PROTO" status bytes "ref" "ua" <extras>
//
// where remote and the three request tokens are runs of non-blank bytes
// separated by single spaces, status is exactly three digits, bytes is one
// or more, time holds no ']' and ref and ua no '"'; extras hold no newline
// and are whitespace-separated key=value fields, of which rt, upstream,
// conns, prop and type are read (the last of a repeated key wins) and the
// rest, like fields without '=', ignored. The head is matched against its
// whole shape before its values are validated, so a line wrong in both ways
// is "unrecognized". The numbers the proxy writes — digits[.digits] for rt and
// prop, short digit runs for the counts — are read in place; any other
// shape goes to strconv whole, so accept, value and error text stay its.
func parseNginx(line string, e *AccessEntry, memo *timeMemo) error {
	// The extras may omit these; a line that parses sets every other field.
	e.RequestTime, e.Upstream, e.Conns, e.Propensity, e.Type = 0, -1, e.Conns[:0], 0, -1

	// Separators and keys are compared as constants, a load or two, where
	// strings.HasPrefix would call memequal.
	p := nonBlankRun(line, 0)
	if p == 0 || len(line)-p < 6 || line[p:p+6] != " - - [" {
		return errUnrecognized(line)
	}
	e.Remote = line[:p]
	p += len(" - - [")
	n := strings.IndexByte(line[p:], ']')
	if n <= 0 || len(line)-p-n < 3 || line[p+n:p+n+3] != `] "` {
		return errUnrecognized(line)
	}
	ts := line[p : p+n]
	p += n + len(`] "`)

	q := nonBlankRun(line, p)
	if q == p || q == len(line) || line[q] != ' ' {
		return errUnrecognized(line)
	}
	e.Method = line[p:q]
	p = q + 1
	q = nonBlankRun(line, p)
	if q == p || q == len(line) || line[q] != ' ' {
		return errUnrecognized(line)
	}
	e.Path = line[p:q]
	p = q + 1
	// The protocol token runs to the next blank and may itself hold
	// quotes; the request's closing quote is the run's last byte.
	q = nonBlankRun(line, p)
	if q-p < 2 || line[q-1] != '"' || q == len(line) || line[q] != ' ' {
		return errUnrecognized(line)
	}
	e.Proto = line[p : q-1]
	p = q + 1

	if len(line) < p+4 || !isDigit(line[p]) || !isDigit(line[p+1]) || !isDigit(line[p+2]) || line[p+3] != ' ' {
		return errUnrecognized(line)
	}
	e.Status = int(line[p]-'0')*100 + int(line[p+1]-'0')*10 + int(line[p+2]-'0')
	p += 4
	bytes, q := digitRun(line, p, 0)
	if q == p || len(line)-q < 2 || line[q:q+2] != ` "` {
		return errUnrecognized(line)
	}
	bytesField := line[p:q]
	p = q + len(` "`)

	n = strings.IndexByte(line[p:], '"') // referrer, unused
	if n < 0 || len(line)-p-n < 3 || line[p+n:p+n+3] != `" "` {
		return errUnrecognized(line)
	}
	p += n + len(`" "`)
	n = strings.IndexByte(line[p:], '"')
	if n < 0 {
		return errUnrecognized(line)
	}
	e.UserAgent = line[p : p+n]
	p += n + 1
	extras := p

	var err error
	if e.Time, err = memo.parse(ts); err != nil {
		return shapeFirst(line, extras, fmt.Errorf("harvester: bad timestamp %q: %w", ts, err))
	}
	if e.Bytes = int64(bytes); len(bytesField) > maxCountDigits {
		if e.Bytes, err = strconv.ParseInt(bytesField, 10, 64); err != nil {
			return shapeFirst(line, extras, fmt.Errorf("harvester: bad bytes %q", bytesField))
		}
	}
	for {
		// Every blank byte of the extras passes here, so this is where a
		// newline, which the head's shape does not allow after the user
		// agent, makes the line unrecognized.
		for p < len(line) && byteClass[line[p]]&clsSpace != 0 {
			if c := line[p]; c == '\n' {
				return errUnrecognized(line)
			} else if c < utf8.RuneSelf {
				p++
			} else if w := spaceWidth(line, p); w > 0 {
				p += w
			} else {
				break
			}
		}
		if p == len(line) {
			return nil
		}
		// The keys the proxy writes are matched where they start.
		key := p
		switch rest := line[p:]; {
		case len(rest) >= 3 && rest[:3] == "rt=":
			e.RequestTime, p, err = readDecimal(line, key+3)
		case len(rest) >= 9 && rest[:9] == "upstream=":
			e.Upstream, p, err = readCount(line, key+9, false)
		case len(rest) >= 6 && rest[:6] == "conns=":
			p, err = e.readConns(line, key+6)
		case len(rest) >= 5 && rest[:5] == "prop=":
			e.Propensity, p, err = readDecimal(line, key+5)
		case len(rest) >= 5 && rest[:5] == "type=":
			e.Type, p, err = readCount(line, key+5, false)
		default: // a field the proxy does not write: skipped whole
			p = fieldEnd(line, p)
			continue
		}
		if err != nil {
			val := key + strings.IndexByte(line[key:], '=') + 1
			return shapeFirst(line, p, fmt.Errorf("harvester: bad %s %q", line[key:val-1], line[val:fieldEnd(line, p)]))
		}
	}
}

// readConns reads the '|'-separated counts of a conns= value at s[i:] into
// e.Conns, reusing its capacity, and returns the index it ends at.
func (e *AccessEntry) readConns(s string, i int) (end int, err error) {
	if e.Conns = e.Conns[:0]; cap(e.Conns) == 0 { // a fresh entry: size it once
		e.Conns = make([]int, 0, 1+strings.Count(s[i:fieldEnd(s, i)], "|"))
	}
	for end = i; ; end++ {
		var c int
		c, end, err = readCount(s, end, true)
		e.Conns = append(e.Conns, c)
		if err != nil || end == len(s) || s[end] != '|' {
			return end, err
		}
	}
}

// shapeFirst returns err, the verdict on a value of line, unless line[from:]
// holds a newline: a line of the wrong shape is unrecognized whatever its
// values.
func shapeFirst(line string, from int, err error) error {
	if strings.IndexByte(line[from:], '\n') >= 0 {
		return errUnrecognized(line)
	}
	return err
}

// maxCountDigits is the longest digit run read in place as a count: nine
// digits fit an int of any width.
const maxCountDigits = 9

// digitRun folds the run of decimal digits at s[i:] onto n and returns the
// index after it. Past 19 digits n has wrapped around.
func digitRun(s string, i int, n uint64) (uint64, int) {
	for ; i < len(s) && isDigit(s[i]); i++ {
		n = n*10 + uint64(s[i]-'0')
	}
	return n, i
}

// readCount reads the integer s[i:] holds up to the end of the field — or,
// for one part of a '|'-separated list, up to the next '|' — as strconv.Atoi
// would, and returns the index it ends at.
func readCount(s string, i int, list bool) (n, end int, err error) {
	u, end := digitRun(s, i, 0)
	if d := end - i; d == 0 || d > maxCountDigits || !(list && end < len(s) && s[end] == '|') && !endsField(s, end) {
		end = fieldEnd(s, end)
		if list {
			if j := strings.IndexByte(s[i:end], '|'); j >= 0 {
				end = i + j
			}
		}
		n, err = strconv.Atoi(s[i:end])
		return n, end, err
	}
	return int(u), end, nil
}

// pow10 holds the powers of ten readDecimal divides by, each exact.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// readDecimal reads the field value at s[i:] as strconv.ParseFloat(_, 64)
// would and returns the index it ends at. digits[.digits] with 15 digits or
// fewer is read in place: the digits as an integer and the power of ten it
// is to be divided by are then both exact float64s, so their quotient is the
// correctly rounded value, which is what strconv returns.
func readDecimal(s string, i int) (v float64, end int, err error) {
	m, dot := digitRun(s, i, 0)
	end = dot
	if dot < len(s) && s[dot] == '.' {
		m, end = digitRun(s, dot+1, m)
	}
	frac := max(end-dot-1, 0)
	if dot == i || end == dot+1 || dot-i+frac >= len(pow10) || !endsField(s, end) {
		end = fieldEnd(s, end)
		v, err = strconv.ParseFloat(s[i:end], 64)
		return v, end, err
	}
	return float64(m) / pow10[frac], end, nil
}

func errUnrecognized(line string) error {
	return fmt.Errorf("harvester: unrecognized access-log line %q", truncate(line, 120))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// nonBlankRun returns the end of the run of non-blank bytes starting at i.
func nonBlankRun(s string, i int) int {
	for i < len(s) && byteClass[s[i]]&clsBlank == 0 {
		i++
	}
	return i
}

// fieldEnd returns the end of the field that reaches s[i]: the index of the
// next whitespace rune — whitespace as strings.Fields has it,
// unicode.IsSpace, so NBSP and U+0085 end a field too.
func fieldEnd(s string, i int) int {
	for i < len(s) && (byteClass[s[i]]&clsSpace == 0 || s[i] >= utf8.RuneSelf && spaceWidth(s, i) == 0) {
		i++
	}
	return i
}

// endsField reports whether a field that reaches s[i] ends there.
func endsField(s string, i int) bool {
	return i == len(s) || s[i] == ' ' || fieldEnd(s, i) == i
}

// spaceWidth returns the width of the whitespace rune at s[i], 0 if the
// rune there is not whitespace.
func spaceWidth(s string, i int) int {
	if r, w := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// ScavengeNginx parses an access log into entries, skipping blank lines.
// A malformed line aborts with its line number — silent data loss would
// bias every downstream estimate.
func ScavengeNginx(r io.Reader) ([]AccessEntry, error) {
	var out []AccessEntry
	err := StreamNginx(r, func(e AccessEntry) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NginxToDataset converts parsed access entries into exploration data:
// context from the logged per-upstream connection counts, action = the
// upstream choice, reward = request time (a cost), propensity from the log
// (step 2 "known from code inspection": the proxy logs its own
// randomization). Entries with failed requests (non-2xx) or missing fields
// are skipped and counted.
func NginxToDataset(entries []AccessEntry) (core.Dataset, int, error) {
	return NginxToTypedDataset(entries, 1)
}

// NginxToTypedDataset is NginxToDataset for logs with request types
// (netlb's type= field): contexts carry the type one-hot, so contextual
// policies can be trained and evaluated per request class. numTypes <= 1
// ignores types; entries typed out of range are skipped.
func NginxToTypedDataset(entries []AccessEntry, numTypes int) (core.Dataset, int, error) {
	ds := make(core.Dataset, 0, len(entries))
	skipped := 0
	for i := range entries {
		d, ok, err := EntryToTypedDatapoint(&entries[i], numTypes)
		if err != nil {
			return nil, 0, fmt.Errorf("harvester: entry %d %w", i, err)
		}
		if !ok {
			skipped++
			continue
		}
		d.Seq = int64(i)
		ds = append(ds, d)
	}
	return ds, skipped, nil
}

// EntryToTypedDatapoint converts one parsed access entry into an
// exploration datapoint — the per-entry unit the batch converters above use;
// harvestd's streaming NginxSource goes through NginxBatch.Append, which
// applies the same harvestable rules, so the two paths cannot drift.
// Failed requests (non-2xx), propensity-free, or type-out-of-range entries
// are skipped (ok=false); an upstream index inconsistent with the logged
// connection vector is an error. The caller assigns Seq.
func EntryToTypedDatapoint(e *AccessEntry, numTypes int) (core.Datapoint, bool, error) {
	reqType, numTypes, ok, err := e.harvestable(numTypes)
	if !ok {
		return core.Datapoint{}, false, err
	}
	return core.Datapoint{
		Context:    lbsim.BuildContext(e.Conns, reqType, numTypes),
		Action:     core.Action(e.Upstream),
		Reward:     e.RequestTime,
		Propensity: e.Propensity,
	}, true, nil
}

// harvestable decides whether e yields a datapoint and, when it does,
// returns the request type and type count to build its context with.
func (e *AccessEntry) harvestable(numTypes int) (reqType, types int, ok bool, err error) {
	if e.Status < 200 || e.Status > 299 || e.Upstream < 0 || len(e.Conns) == 0 || e.Propensity <= 0 {
		return 0, 0, false, nil
	}
	if e.Upstream >= len(e.Conns) {
		return 0, 0, false, fmt.Errorf("upstream %d with %d conns", e.Upstream, len(e.Conns))
	}
	if numTypes <= 1 {
		return 0, 1, true, nil
	}
	if e.Type < 0 || e.Type >= numTypes {
		return 0, 0, false, nil
	}
	return e.Type, numTypes, true, nil
}

// NginxBatch is the caller-owned buffer set a run of access-log lines is
// harvested into — the text counterpart of binrec.Batch. Points and every
// Vector hanging off them alias the batch's arena: they are valid until
// Reset, so fold them (or copy them out) before reusing the batch. The zero
// value is ready to use; a reused batch parses without allocating.
type NginxBatch struct {
	// Points holds the datapoints harvested since Reset.
	Points []core.Datapoint

	arena core.Arena
	entry AccessEntry // parse scratch; only Conns' capacity outlives a line
	memo  timeMemo
}

// Reset empties the batch, keeping its buffers for reuse.
func (b *NginxBatch) Reset() {
	b.Points = b.Points[:0]
	b.arena.Reset()
}

// Append parses one access-log line and, when it carries a datapoint,
// appends it to Points under the given Seq. ok=false with a nil error is a
// well-formed line with nothing to harvest (see EntryToTypedDatapoint); an
// error is a line that does not parse or contradicts itself. line is not
// retained.
func (b *NginxBatch) Append(line []byte, numTypes int, seq int64) (ok bool, err error) {
	e := &b.entry
	// The string view lets the scanner and strconv read the caller's bytes
	// in place; the text fields that would keep pointing into them are
	// dropped before returning.
	err = parseNginx(unsafe.String(unsafe.SliceData(line), len(line)), e, &b.memo)
	e.Remote, e.Method, e.Path, e.Proto, e.UserAgent = "", "", "", "", ""
	if err != nil {
		return false, err
	}
	reqType, numTypes, ok, err := e.harvestable(numTypes)
	if !ok {
		return false, err
	}
	// Written in place: appending a composite literal builds the ~100-byte
	// point on the stack and copies it.
	n := len(b.Points)
	if n == cap(b.Points) {
		b.Points = slices.Grow(b.Points, 1)
	}
	b.Points = b.Points[:n+1]
	d := &b.Points[n]
	d.Context = lbsim.BuildContextIn(&b.arena, e.Conns, reqType, numTypes)
	d.Action, d.Reward, d.Propensity, d.Seq, d.Tag = core.Action(e.Upstream), e.RequestTime, e.Propensity, seq, ""
	return true, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
