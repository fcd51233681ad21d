// Package fixture holds malformed and stale suppression directives: each
// must be reported so a typo or a fixed finding can never silently disable
// a check.
package fixture

import "errors"

func work() error { return errors.New("boom") }

func malformed() {
	//lint:ignore errdrop
	work()
}

func unknown() {
	//lint:ignore nosuch some reason
	work()
}

func stale() error {
	//lint:ignore errdrop the error below is returned, not dropped
	return work()
}
