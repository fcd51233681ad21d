package ope

// ErrBadPropensity exposes the bad-propensity sentinel to the external
// reference tests.
var ErrBadPropensity = errBadPropensity
