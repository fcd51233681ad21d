package harvester

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The regexp parser the hand-written scanner replaced, kept verbatim as the
// oracle: parseNginx must accept and reject exactly the lines this does,
// with the same field values and the same error text.

var oracleNginxRe = regexp.MustCompile(
	`^(\S+) - - \[([^\]]+)\] "(\S+) (\S+) (\S+)" (\d{3}) (\d+) "([^"]*)" "([^"]*)"(.*)$`)

func oracleParseNginxLine(line string) (*AccessEntry, error) {
	m := oracleNginxRe.FindStringSubmatch(line)
	if m == nil {
		return nil, fmt.Errorf("harvester: unrecognized access-log line %q", truncate(line, 120))
	}
	e := &AccessEntry{
		Remote:    m[1],
		Method:    m[3],
		Path:      m[4],
		Proto:     m[5],
		UserAgent: m[9],
		Upstream:  -1,
		Type:      -1,
	}
	ts, err := time.Parse("02/Jan/2006:15:04:05 -0700", m[2])
	if err != nil {
		return nil, fmt.Errorf("harvester: bad timestamp %q: %w", m[2], err)
	}
	e.Time = ts
	e.Status, err = strconv.Atoi(m[6])
	if err != nil {
		return nil, fmt.Errorf("harvester: bad status %q", m[6])
	}
	e.Bytes, err = strconv.ParseInt(m[7], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("harvester: bad bytes %q", m[7])
	}
	for _, field := range strings.Fields(m[10]) {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			continue
		}
		switch kv[0] {
		case "rt":
			e.RequestTime, err = strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return nil, fmt.Errorf("harvester: bad rt %q", kv[1])
			}
		case "upstream":
			e.Upstream, err = strconv.Atoi(kv[1])
			if err != nil {
				return nil, fmt.Errorf("harvester: bad upstream %q", kv[1])
			}
		case "conns":
			parts := strings.Split(kv[1], "|")
			e.Conns = make([]int, len(parts))
			for i, p := range parts {
				e.Conns[i], err = strconv.Atoi(p)
				if err != nil {
					return nil, fmt.Errorf("harvester: bad conns %q", kv[1])
				}
			}
		case "prop":
			e.Propensity, err = strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return nil, fmt.Errorf("harvester: bad prop %q", kv[1])
			}
		case "type":
			e.Type, err = strconv.Atoi(kv[1])
			if err != nil {
				return nil, fmt.Errorf("harvester: bad type %q", kv[1])
			}
		}
	}
	return e, nil
}

// oracleLines is the Scanner + TrimSpace + blank-skip + numbering loop the
// five text readers each carried before LineReader.
func oracleLines(r io.Reader, handle func(no int, line string)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, core.ScanBufferSize), core.MaxRecordBytes)
	no := 0
	for sc.Scan() {
		no++
		if line := strings.TrimSpace(sc.Text()); line != "" {
			handle(no, line)
		}
	}
	return sc.Err()
}

// sameEntry compares two parsed entries field by field: the timestamps by
// instant and zone, since two parses of a foreign offset fabricate two
// distinct *time.Location values, and the floats by bits, since rt=NaN
// parses.
func sameEntry(a, b *AccessEntry) bool {
	_, ao := a.Time.Zone()
	_, bo := b.Time.Zone()
	if !a.Time.Equal(b.Time) || ao != bo ||
		math.Float64bits(a.RequestTime) != math.Float64bits(b.RequestTime) ||
		math.Float64bits(a.Propensity) != math.Float64bits(b.Propensity) {
		return false
	}
	ac, bc := *a, *b
	ac.Time, bc.Time = time.Time{}, time.Time{}
	ac.RequestTime, bc.RequestTime, ac.Propensity, bc.Propensity = 0, 0, 0, 0
	return reflect.DeepEqual(ac, bc)
}

// samePoint is reflect.DeepEqual with the reward compared by bits.
func samePoint(a, b core.Datapoint) bool {
	if math.Float64bits(a.Reward) != math.Float64bits(b.Reward) {
		return false
	}
	a.Reward, b.Reward = 0, 0
	return reflect.DeepEqual(a, b)
}

// fuzzBatch outlives the fuzz iterations so they exercise the reuse of the
// scratch entry and the timestamp memo, not only fresh state.
var fuzzBatch NginxBatch

// checkAgainstOracle holds every parser entry point to the oracle on one
// line: the compat API, and the batch path at both type widths, twice (the
// second parse hits the timestamp memo).
func checkAgainstOracle(t *testing.T, line string) {
	t.Helper()
	want, werr := oracleParseNginxLine(line)
	got, gerr := ParseNginxLine(line)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("line %q:\n parser err %v\n oracle err %v", line, gerr, werr)
	}
	if werr == nil && !sameEntry(got, want) {
		t.Fatalf("line %q:\n parser %+v\n oracle %+v", line, got, want)
	}
	for _, numTypes := range []int{1, 3} {
		var wantPt core.Datapoint
		wantOK, wantErr := false, werr
		if werr == nil {
			wantPt, wantOK, wantErr = EntryToTypedDatapoint(want, numTypes)
			wantPt.Seq = 7
		}
		for pass := 0; pass < 2; pass++ {
			fuzzBatch.Reset()
			ok, err := fuzzBatch.Append([]byte(line), numTypes, 7)
			if ok != wantOK || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("line %q types %d pass %d:\n batch  ok=%v err=%v\n oracle ok=%v err=%v",
					line, numTypes, pass, ok, err, wantOK, wantErr)
			}
			if !ok {
				if len(fuzzBatch.Points) != 0 {
					t.Fatalf("line %q: %d points appended for a line without one", line, len(fuzzBatch.Points))
				}
				continue
			}
			if len(fuzzBatch.Points) != 1 || !samePoint(fuzzBatch.Points[0], wantPt) {
				t.Fatalf("line %q types %d pass %d:\n batch  %+v\n oracle %+v", line, numTypes, pass, fuzzBatch.Points, wantPt)
			}
		}
	}
}
