package harvester

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/cachesim"
)

// FuzzParseNginxLine is differential: the hand-written scanner (compat API
// and batch path) must agree with the regexp parser it replaced on every
// input — accept/reject, every field, every error text. The seeds sit on
// the places the two could part: the regexp's \S is five ASCII bytes while
// strings.Fields, which splits the extras, is Unicode-aware.
func FuzzParseNginxLine(f *testing.F) {
	const head = `x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-"`
	for _, line := range []string{
		sampleLine,
		sampleLine + " type=2",
		head,
		head + ` rt=1 upstream=0 conns=1 prop=1`,
		"",
		`" - - [bad`,
		// Separators in the extras: \v, NBSP and U+0085 split fields, a bare
		// 0x85 or 0xA0 byte does not; no separator at all after the quote.
		head + " rt=1\vupstream=1\u00a0conns=1|2\u0085prop=0.5\u2003type=1",
		head + " rt=1\x85upstream=1 conns=1|2\xa0prop=0.5",
		head + `rt=1 upstream=0 conns=4 prop=1`,
		head + "\trt=1\fupstream=0\rconns=4  prop=1 ",
		head + " rt=1\nupstream=0",
		// ... and in the head, where only a single space will do.
		"x\v - - [06/Jul/2026:10:30:00 +0000] \"GET\u00a0/ HTTP/1.1\" 200 0 \"-\" \"-\"",
		"x - - [06/Jul/2026:10:30:00 +0000] \"GET /\tHTTP/1.1\" 200 0 \"-\" \"-\"",
		"x - - [06/Jul/2026:10:30:00 +0000] \"GET  / HTTP/1.1\" 200 0 \"-\" \"-\"",
		"x y - - [06/Jul/2026:10:30:00 +0000] \"GET / HTTP/1.1\" 200 0 \"-\" \"-\"",
		// Quotes inside the request tokens; the closing quote is the last.
		`x - - [06/Jul/2026:10:30:00 +0000] "G"ET /"a"b HTTP/"1.1"" 200 0 "-" "-" prop=1`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / "" 200 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / "" 200 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1 200 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" x" 200 0 "-" "-"`,
		// Status must be exactly three digits, bytes one or more.
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 20 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 2000 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 2x0 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200  "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 -1 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 99999999999999999999 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-" rt=bad`, // bytes fine, rt not
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-""-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-`,
		"x - - [06/Jul/2026:10:30:00 +0000] \"GET / HTTP/1.1\" 200 0 \"a\nb\" \"c\nd\" prop=1",
		// Timestamps: empty, bracketed oddly, wrong but well-shaped, with a
		// fraction time.Parse accepts, in a zone that is not the local one.
		`x - - [] "GET / HTTP/1.1" 200 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000]] "GET / HTTP/1.1" 200 0 "-" "-"`,
		`x - - [31/Feb/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-"`,
		`x - - [31/Feb/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-" rt=bad`,
		`x - - [31/Feb/2026:10:30:00 +0000] "GET / HTTP/1.1" 2000 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00.250 -0730] "GET / HTTP/1.1" 200 0 "-" "-" prop=1`,
		`x - - [06/Jul/2026:10:30:00 +0000 and then some more than the memo holds] "GET / HTTP/1.1" 200 0 "-" "-"`,
		// Extras: duplicates (last wins, an earlier bad one still fails),
		// value-less and key-less fields, unknown keys, empty and ragged
		// conns, signs, exponents, non-finite floats, out-of-range ints.
		head + ` rt=1 rt=2 upstream=0 upstream=1 conns=1|2 conns=3|4|5 prop=0.25 prop=0.5 type=0 type=1`,
		head + ` conns=1|2|3 conns=9 upstream=0 prop=1`,
		head + ` conns=1|x conns=9`,
		head + ` rt upstream conns prop type =5 = rt==1`,
		head + ` rt= upstream=0 conns=1 prop=1`,
		head + ` conns=`,
		head + ` conns=| upstream=0 prop=1`,
		head + ` conns=1| upstream=0 prop=1`,
		head + ` conns=|1 upstream=0 prop=1`,
		head + ` upstream=+1 conns=-0|+7 prop=1e-1 rt=0x1p-4 type=-0`,
		head + ` upstream=1_0 conns=1|2 prop=1`,
		head + ` rt=NaN prop=+Inf upstream=0 conns=1`,
		head + ` upstream=99999999999999999999 conns=1 prop=1`,
		head + ` upstream=5 conns=1|2 prop=1`,
		head + ` upstream=0 conns=1|2 prop=1 type=7`,
		head + ` upstream=0 conns=` + strings.Repeat("1|", 40) + `1 prop=0.024390243902439025 rt=0.00000000000000000000000000000000000001`,
		" " + head,
		head + "\r",
		"\xff\xfe - - [06/Jul/2026:10:30:00 +0000] \"G\xc3 / H\" 200 0 \"\x80\" \"\xf0\x28\" prop=1\xc2",
	} {
		f.Add(line)
	}
	for _, num := range numberShapes {
		f.Add(head + " rt=" + num + " prop=" + num + " upstream=0 conns=" + num + "|" + num)
	}
	f.Fuzz(checkAgainstOracle)
}

// numberShapes are the values on either side of what the scanner reads in
// place: digits[.digits] up to 15 digits and digit runs up to 9 are its own,
// everything else must reach strconv whole.
var numberShapes = []string{
	"0", "7", "000.5", "1.", ".5", "+0.5", "-0", "1e-3", "0x1p-4", "1_0", "NaN", "Inf", "", ".", "1.5.2", "1|2",
	"0.000000", "0.333333", "1.000000", "3600.000000", "0.1\u00a0", "5\v6", "0.5\x85",
	"123456789012345", "1234567.89012345", "0.12345678901234", // 15 digits
	"1234567890123456", "0.123456789012345", "9007199254740993", // 16
	"12345678901234567", "0.1234567890123456", "00000000000000001", // 17
	"999999999", "000000001", "1000000000", "9999999999", "99999999999999999999",
}

// FuzzParseNumber is differential: the two in-place readers against the
// strconv calls they stand in for, over the field their input starts with.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberShapes {
		f.Add(s)
	}
	f.Fuzz(checkNumber)
}

func checkNumber(t *testing.T, s string) {
	t.Helper()
	field := s
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		field = s[:i]
	}
	v, end, err := readDecimal(s, 0)
	want, werr := strconv.ParseFloat(field, 64)
	if end != len(field) || (err == nil) != (werr == nil) || math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("readDecimal(%q) = %v (%#x), %d, %v; strconv.ParseFloat(%q) = %v (%#x), %v",
			s, v, math.Float64bits(v), end, err, field, want, math.Float64bits(want), werr)
	}
	for _, list := range []bool{false, true} {
		part := field
		if list {
			part, _, _ = strings.Cut(field, "|")
		}
		n, end, err := readCount(s, 0, list)
		want, werr := strconv.Atoi(part)
		if end != len(part) || (err == nil) != (werr == nil) || n != want {
			t.Fatalf("readCount(%q, list=%v) = %d, %d, %v; strconv.Atoi(%q) = %d, %v", s, list, n, end, err, part, want, werr)
		}
	}
}

// FuzzCacheLogRoundTrip checks arbitrary keys and numeric fields survive
// the cache-log wire format.
func FuzzCacheLogRoundTrip(f *testing.F) {
	f.Add("key", int64(10), 2.5, 3, 0.5)
	f.Add("key with space", int64(1), 0.0, 1, 1.0)
	f.Add(`colon:quote"back\slash`, int64(7), 1.25, 2, 0.25)
	f.Add("", int64(5), 1.0, 1, 0.5)
	f.Fuzz(func(t *testing.T, key string, size int64, last float64, freq int, prop float64) {
		if key == "" || size <= 0 || freq < 0 || !(prop > 0) || prop > 1 ||
			last != last || last < 0 || last > 1e12 {
			return // outside the producer's contract
		}
		evictions := []cachesim.EvictionRecord{{
			Time: last,
			Candidates: []cachesim.Candidate{{
				Key: key, Size: size, LastAccess: last, Frequency: freq, InsertedAt: last,
			}},
			Chosen:     0,
			Propensity: prop,
		}}
		accesses := []cachesim.AccessRecord{{Time: last, Key: key, Size: size, Hit: true}}
		var buf bytes.Buffer
		if err := WriteCacheLogs(&buf, accesses, evictions); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		gotA, gotE, err := ScavengeCacheLogs(&buf)
		if err != nil {
			t.Fatalf("round trip rejected its own output %q: %v", buf.String(), err)
		}
		if len(gotA) != 1 || len(gotE) != 1 {
			t.Fatalf("lost records: %d/%d", len(gotA), len(gotE))
		}
		if gotA[0].Key != key || gotE[0].Candidates[0].Key != key {
			t.Fatalf("key corrupted: %q vs %q", gotA[0].Key, key)
		}
		if gotE[0].Candidates[0].Size != size || gotE[0].Candidates[0].Frequency != freq {
			t.Fatalf("numeric fields corrupted: %+v", gotE[0].Candidates[0])
		}
	})
}

// FuzzScavengeCacheLogs checks the parser never panics on arbitrary text.
func FuzzScavengeCacheLogs(f *testing.F) {
	f.Add("A 1 \"k\" 10 1\nE 2 0 0.5 \"k\":10:1:2:0\n")
	f.Add("E 1 0")
	f.Add("A")
	f.Add(strings.Repeat("A 1 \"k\" 10 1\n", 50))
	f.Fuzz(func(t *testing.T, input string) {
		_, _, _ = ScavengeCacheLogs(strings.NewReader(input))
	})
}
