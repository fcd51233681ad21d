package harvester

import (
	"fmt"
	"io"
)

// StreamNginx parses an access log incrementally, invoking handle for each
// entry as soon as its line is read. Unlike ScavengeNginx it never holds
// the whole log in memory, so it suits tailing a live proxy's log — the
// paper's footnote that "off-policy evaluation may incrementally update;
// it just does not intervene in a live (online) system."
//
// handle returning a non-nil error stops the stream and propagates the
// error. Malformed lines abort with their line number.
func StreamNginx(r io.Reader, handle func(AccessEntry) error) error {
	if handle == nil {
		return fmt.Errorf("harvester: nil stream handler")
	}
	var memo timeMemo
	lr := NewLineReader(r)
	for lr.Fill() {
		for lr.Next() {
			// handle may keep the entry: it gets its own copy of the line
			// (the text fields are substrings of it) and its own Conns.
			var e AccessEntry
			if err := parseNginx(string(lr.Line()), &e, &memo); err != nil {
				return fmt.Errorf("line %d: %w", lr.LineNo(), err)
			}
			if err := handle(e); err != nil {
				return fmt.Errorf("line %d: handler: %w", lr.LineNo(), err)
			}
		}
	}
	if err := lr.Err(); err != nil {
		return fmt.Errorf("harvester: reading access log: %w", err)
	}
	return nil
}
