// Package harvester implements the paper's three-step methodology (§3):
//
//  1. Scavenge logs from an existing (live) system and extract ⟨x, a, r⟩
//     for each request — parsers for Nginx-style access logs (the netlb
//     proxy's format) and cache eviction logs live here.
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

// parseNginx scans one line left to right into e, reusing e.Conns'
// capacity. The text fields it sets are substrings of line. The grammar is
//
//	remote - - [time] "METHOD path PROTO" status bytes "ref" "ua" <extras>
//
// where remote and the three request tokens are runs of non-blank bytes
// separated by single spaces, status is exactly three digits, bytes is one
// or more, time holds no ']' and ref and ua no '"'; extras are
// whitespace-separated key=value fields, of which rt, upstream, conns,
// prop and type are read (the last of a repeated key wins) and the rest,
// like fields without '=', ignored. A line is first matched against the
// whole shape, then its values are validated in order, so a line wrong in
// both ways is "unrecognized".
func parseNginx(line string, e *AccessEntry, memo *timeMemo) error {
	*e = AccessEntry{Conns: e.Conns[:0], Upstream: -1, Type: -1}

	p := nonBlankRun(line, 0)
	if p == 0 || !strings.HasPrefix(line[p:], " - - [") {
		return errUnrecognized(line)
	}
	e.Remote = line[:p]
	p += len(" - - [")
	n := strings.IndexByte(line[p:], ']')
	if n <= 0 || !strings.HasPrefix(line[p+n:], `] "`) {
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
	q = p
	for q < len(line) && isDigit(line[q]) {
		q++
	}
	if q == p || !strings.HasPrefix(line[q:], ` "`) {
		return errUnrecognized(line)
	}
	bytesField := line[p:q]
	p = q + len(` "`)

	n = strings.IndexByte(line[p:], '"') // referrer, unused
	if n < 0 || !strings.HasPrefix(line[p+n:], `" "`) {
		return errUnrecognized(line)
	}
	p += n + len(`" "`)
	n = strings.IndexByte(line[p:], '"')
	if n < 0 {
		return errUnrecognized(line)
	}
	e.UserAgent = line[p : p+n]
	extras := line[p+n+1:]
	if strings.IndexByte(extras, '\n') >= 0 {
		return errUnrecognized(line)
	}

	var err error
	if e.Time, err = memo.parse(ts); err != nil {
		return fmt.Errorf("harvester: bad timestamp %q: %w", ts, err)
	}
	if e.Bytes, err = strconv.ParseInt(bytesField, 10, 64); err != nil {
		return fmt.Errorf("harvester: bad bytes %q", bytesField)
	}
	for {
		var field string
		if field, extras = nextField(extras); field == "" {
			return nil
		}
		key, val, found := strings.Cut(field, "=")
		if !found {
			continue
		}
		switch key {
		case "rt":
			e.RequestTime, err = strconv.ParseFloat(val, 64)
		case "upstream":
			e.Upstream, err = strconv.Atoi(val)
		case "conns":
			e.Conns, err = appendConns(e.Conns[:0], val)
		case "prop":
			e.Propensity, err = strconv.ParseFloat(val, 64)
		case "type":
			e.Type, err = strconv.Atoi(val)
		}
		if err != nil {
			return fmt.Errorf("harvester: bad %s %q", key, val)
		}
	}
}

// appendConns parses a '|'-separated list of counts onto dst.
func appendConns(dst []int, val string) ([]int, error) {
	if n := strings.Count(val, "|") + 1; cap(dst) < n {
		dst = make([]int, 0, n)
	}
	for more := true; more; {
		var part string
		part, val, more = strings.Cut(val, "|")
		c, err := strconv.Atoi(part)
		if err != nil {
			return dst, err
		}
		dst = append(dst, c)
	}
	return dst, nil
}

func errUnrecognized(line string) error {
	return fmt.Errorf("harvester: unrecognized access-log line %q", truncate(line, 120))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// nonBlankRun returns the end of the run of non-blank bytes starting at i,
// blank being the five bytes a regexp's \s matches.
func nonBlankRun(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case ' ', '\t', '\n', '\f', '\r':
			return i
		}
		i++
	}
	return i
}

// nextField splits the first whitespace-separated field off s, as
// strings.Fields would: whitespace is unicode.IsSpace, so NBSP and U+0085
// separate fields too. field is empty when s holds none.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		w := spaceWidth(s, i)
		if w == 0 {
			break
		}
		i += w
	}
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if c == ' ' || c-'\t' < 5 {
				break
			}
			i++
		} else if spaceWidth(s, i) > 0 {
			break
		} else {
			_, w := utf8.DecodeRuneInString(s[i:])
			i += w
		}
	}
	return s[start:i], s[i:]
}

// spaceWidth returns the width of the whitespace rune at s[i], 0 if the
// rune there is not whitespace.
func spaceWidth(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		if c == ' ' || c-'\t' < 5 { // \t \n \v \f \r
			return 1
		}
		return 0
	}
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
	b.Points = append(b.Points, core.Datapoint{
		Context:    lbsim.BuildContextIn(&b.arena, e.Conns, reqType, numTypes),
		Action:     core.Action(e.Upstream),
		Reward:     e.RequestTime,
		Propensity: e.Propensity,
		Seq:        seq,
	})
	return true, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
