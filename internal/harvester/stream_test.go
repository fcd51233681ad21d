package harvester

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestStreamNginxDeliversEntries(t *testing.T) {
	input := sampleLine + "\n" + sampleLine + "\n"
	var got []AccessEntry
	err := StreamNginx(strings.NewReader(input), func(e AccessEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Upstream != 1 {
		t.Errorf("streamed %d entries: %+v", len(got), got)
	}
}

func TestStreamNginxStopsOnHandlerError(t *testing.T) {
	boom := errors.New("boom")
	input := sampleLine + "\n" + sampleLine + "\n"
	calls := 0
	err := StreamNginx(strings.NewReader(input), func(AccessEntry) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Errorf("handler called %d times after error", calls)
	}
}

func TestStreamNginxValidation(t *testing.T) {
	if err := StreamNginx(strings.NewReader(""), nil); err == nil {
		t.Error("nil handler should fail")
	}
	if err := StreamNginx(strings.NewReader("garbage"), func(AccessEntry) error { return nil }); err == nil {
		t.Error("malformed line should fail")
	}
}

func TestStreamNginxLongLine(t *testing.T) {
	// A line longer than the scanner's initial 64 KiB buffer must still
	// parse (the buffer grows up to core.MaxRecordBytes). Bulk up the user-agent
	// field — paths and UAs in real logs can be pathological.
	longUA := strings.Repeat("x", 200*1024)
	line := strings.Replace(sampleLine, `"Go-http-client/1.1"`, `"`+longUA+`"`, 1)
	if len(line) <= 64*1024 {
		t.Fatalf("test line only %d bytes, want > 64 KiB", len(line))
	}
	var got []AccessEntry
	err := StreamNginx(strings.NewReader(line+"\n"+sampleLine+"\n"), func(e AccessEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d entries, want 2", len(got))
	}
	if got[0].UserAgent != longUA {
		t.Errorf("long user-agent truncated to %d bytes", len(got[0].UserAgent))
	}
}

func TestStreamNginxLineOverCap(t *testing.T) {
	// Beyond core.MaxRecordBytes — the one record bound every reader in the
	// repository shares — the reader must fail loudly, not truncate.
	huge := strings.Replace(sampleLine, `"Go-http-client/1.1"`, `"`+strings.Repeat("y", core.MaxRecordBytes+1)+`"`, 1)
	err := StreamNginx(strings.NewReader(huge+"\n"), func(AccessEntry) error { return nil })
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over MaxRecordBytes: err = %v, want bufio.ErrTooLong", err)
	}
	// A 9 MiB line — over the 8 MiB this reader alone used to stop at — is
	// within the shared bound and parses.
	big := strings.Replace(sampleLine, `"Go-http-client/1.1"`, `"`+strings.Repeat("y", 9*1024*1024)+`"`, 1)
	n := 0
	if err := StreamNginx(strings.NewReader(big+"\n"), func(AccessEntry) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("9 MiB line: %d entries, err = %v", n, err)
	}
}

func TestStreamNginxCRLF(t *testing.T) {
	// Windows-style \r\n endings must not corrupt the trailing field.
	input := sampleLine + "\r\n" + sampleLine + "\r\n"
	var got []AccessEntry
	err := StreamNginx(strings.NewReader(input), func(e AccessEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d entries, want 2", len(got))
	}
	if got[1].Propensity != 0.5 {
		t.Errorf("trailing prop field corrupted by CR: %+v", got[1])
	}
}

func TestStreamNginxHandlerErrorMidStreamLineNumber(t *testing.T) {
	boom := errors.New("boom")
	input := sampleLine + "\n\n" + sampleLine + "\n" + sampleLine + "\n"
	calls := 0
	err := StreamNginx(strings.NewReader(input), func(AccessEntry) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The second entry sits on line 3 (a blank line intervenes); the error
	// must carry the physical line number, not the entry index.
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name physical line 3: %v", err)
	}
}
