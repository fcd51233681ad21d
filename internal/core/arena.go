package core

// Arena bump-allocates the feature vectors and ActionFeatures row headers
// of one batch of datapoints, so a source that recycles its batches decodes
// or parses without a heap allocation per record. Slices carved from it
// stay valid until Reset; the zero value is ready to use.
type Arena struct {
	floats   []float64
	floatOff int
	rows     []Vector
	rowOff   int
}

// Floats carves n float64s (nil for n == 0). They are not zeroed: a reused
// arena hands out whatever the previous batch left. When the backing array
// is exhausted it is replaced with a larger one; slices carved earlier keep
// referencing the old array, so points already built stay valid.
func (a *Arena) Floats(n int) Vector {
	if n == 0 {
		return nil
	}
	if a.floatOff+n > cap(a.floats) {
		a.floats = make([]float64, max(2*cap(a.floats), n, 1024))
		a.floatOff = 0
	}
	s := a.floats[a.floatOff : a.floatOff+n : a.floatOff+n]
	a.floatOff += n
	return s
}

// Rows carves n ActionFeatures row headers (nil for n == 0), with the same
// growth and staleness rules as Floats.
func (a *Arena) Rows(n int) []Vector {
	if n == 0 {
		return nil
	}
	if a.rowOff+n > cap(a.rows) {
		a.rows = make([]Vector, max(2*cap(a.rows), n, 64))
		a.rowOff = 0
	}
	s := a.rows[a.rowOff : a.rowOff+n : a.rowOff+n]
	a.rowOff += n
	return s
}

// Grow makes room for at least floats more float64s and rows more row
// headers: a source that learns a batch's size up front pays one allocation
// instead of the doubling steps. Sizes round up to the minimum blocks, so
// batches that differ by a record or two settle on one array. Slices carved
// earlier stay valid, as in Floats.
func (a *Arena) Grow(floats, rows int) {
	if a.floatOff+floats > cap(a.floats) {
		a.floats = make([]float64, (floats+1023)&^1023)
		a.floatOff = 0
	}
	if a.rowOff+rows > cap(a.rows) {
		a.rows = make([]Vector, (rows+63)&^63)
		a.rowOff = 0
	}
}

// Reset makes the whole arena available again, keeping its backing arrays.
// Everything carved before the call is up for reuse.
func (a *Arena) Reset() {
	a.floatOff = 0
	a.rowOff = 0
}
