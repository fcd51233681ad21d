package learn

import (
	"repro/internal/core"
)

// SGDRegressor is an online linear least-squares learner with a bias term.
// It backs the incremental learners (epoch-greedy) where refitting a ridge
// solve per step would be wasteful.
type SGDRegressor struct {
	w    core.Vector // weights; last entry is the bias
	lr   float64
	dec  float64
	step int
}

// NewSGDRegressor creates a regressor for dim input features with base
// learning rate lr (default 0.05 if <= 0) and decay dec (lr_t =
// lr/(1+dec·t); default 1e-3 if < 0 is not allowed, 0 disables decay).
func NewSGDRegressor(dim int, lr, dec float64) *SGDRegressor {
	if lr <= 0 {
		lr = 0.05
	}
	if dec < 0 {
		dec = 0
	}
	return &SGDRegressor{w: make(core.Vector, dim+1), lr: lr, dec: dec}
}

// Predict returns the current linear prediction for x.
func (s *SGDRegressor) Predict(x core.Vector) float64 {
	return PredictLinear(s.w, x)
}

// Update performs one gradient step toward target y with importance weight
// iw (use 1 for unweighted; 1/propensity for IPS-weighted bandit updates).
func (s *SGDRegressor) Update(x core.Vector, y, iw float64) {
	pred := s.Predict(x)
	g := (pred - y) * iw
	lr := s.lr / (1 + s.dec*float64(s.step))
	s.step++
	dim := len(s.w) - 1
	for j := 0; j < dim && j < len(x); j++ {
		s.w[j] -= lr * g * x[j]
	}
	s.w[dim] -= lr * g // bias
}
