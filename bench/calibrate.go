package main

import (
	"strconv"
	"time"
)

// The sandbox's speed drifts by ±10 % over tens of seconds (neighbours on
// the host; README "Noise"), longer than a rep and as long as a whole
// catch-up phase, so no statistic over a run's reps removes it. The
// harness therefore times a fixed piece of work of its own beside every
// rep and scales the rep's rate by how slow the machine was just then.

// refNominal is refKernel's duration on the machine the bounds were set
// on: a rate is reported as if the kernel had taken this long.
const refNominal = 36 * time.Millisecond

var refSink int

// refKernel is the reference work: number formatting and parsing, short
// strings, small slices and a map, single goroutine — the kind of work the
// ingest path does, sharing no code with it. It returns how long it took.
func refKernel() time.Duration {
	t0 := time.Now()
	m := make(map[string][]float64, 256)
	var buf []byte
	for i := 0; i < 60000; i++ {
		buf = strconv.AppendFloat(buf[:0], float64(i)*1.0009765625, 'f', 6, 64)
		s := string(buf)
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			panic(err) // AppendFloat's own output
		}
		k := s[:3]
		m[k] = append(m[k][:len(m[k]):len(m[k])], v) // full slice: every append allocates
		if len(m[k]) > 8 {
			m[k] = nil
		}
	}
	refSink += len(m)
	return time.Since(t0)
}

// machineSlowness is how much slower than nominal the machine ran between
// two kernel timings taken on either side of a measurement.
func machineSlowness(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}
