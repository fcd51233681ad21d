package learn

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Multinomial is a multinomial (softmax) logistic regression over actions,
// used for step 2 of the harvesting methodology when propensities cannot be
// read off the code: "a more robust approach is to do a regression on the
// ⟨x, a, r⟩ data to learn the probability distribution over actions" (§3).
type Multinomial struct {
	// W holds one weight row per action (bias last).
	W []core.Vector
	k int
}

// MultinomialOptions configures training.
type MultinomialOptions struct {
	// NumActions fixes the class count (0 infers from data).
	NumActions int
	// Epochs over the data (default 50).
	Epochs int
	// LR is the gradient step size (default 0.5, decayed per epoch).
	LR float64
	// L2 regularization strength (default 1e-4).
	L2 float64
}

// FitMultinomial trains softmax regression with full-batch gradient descent.
// Deterministic: no sampling, fixed epoch count.
func FitMultinomial(xs []core.Vector, as []core.Action, opts MultinomialOptions) (*Multinomial, error) {
	if len(xs) == 0 {
		return nil, core.ErrNoData
	}
	if len(as) != len(xs) {
		return nil, fmt.Errorf("learn: %d labels for %d rows", len(as), len(xs))
	}
	k := opts.NumActions
	dim := 0
	for i, x := range xs {
		if len(x) > dim {
			dim = len(x)
		}
		if int(as[i]) >= k {
			if opts.NumActions > 0 {
				return nil, fmt.Errorf("learn: label %d exceeds NumActions %d", as[i], opts.NumActions)
			}
			k = int(as[i]) + 1
		}
		if as[i] < 0 {
			return nil, fmt.Errorf("learn: negative label at row %d", i)
		}
	}
	if k < 2 {
		return nil, fmt.Errorf("learn: need at least 2 classes, got %d", k)
	}
	epochs := opts.Epochs
	if epochs <= 0 {
		epochs = 50
	}
	lr := opts.LR
	if lr <= 0 {
		lr = 0.5
	}
	l2 := opts.L2
	if l2 < 0 {
		l2 = 0
	} else if l2 == 0 {
		l2 = 1e-4
	}

	d := dim + 1
	m := &Multinomial{W: make([]core.Vector, k), k: k}
	for a := range m.W {
		m.W[a] = make(core.Vector, d)
	}
	n := float64(len(xs))
	grad := make([]core.Vector, k)
	for a := range grad {
		grad[a] = make(core.Vector, d)
	}
	probs := make([]float64, k)
	row := make([]float64, d)
	for e := 0; e < epochs; e++ {
		for a := range grad {
			for j := range grad[a] {
				grad[a][j] = 0
			}
		}
		for i, x := range xs {
			for j := 0; j < dim; j++ {
				if j < len(x) {
					row[j] = x[j]
				} else {
					row[j] = 0
				}
			}
			row[dim] = 1
			m.softmax(row, probs)
			for a := 0; a < k; a++ {
				coef := probs[a]
				if int(as[i]) == a {
					coef -= 1
				}
				if coef == 0 {
					continue
				}
				g := grad[a]
				for j := 0; j < d; j++ {
					g[j] += coef * row[j]
				}
			}
		}
		step := lr / (1 + 0.05*float64(e))
		for a := 0; a < k; a++ {
			for j := 0; j < d; j++ {
				m.W[a][j] -= step * (grad[a][j]/n + l2*m.W[a][j])
			}
		}
	}
	return m, nil
}

// softmax writes class probabilities for an augmented row into out.
func (m *Multinomial) softmax(row []float64, out []float64) {
	maxS := math.Inf(-1)
	for a := 0; a < m.k; a++ {
		s := 0.0
		w := m.W[a]
		for j := 0; j < len(row) && j < len(w); j++ {
			s += w[j] * row[j]
		}
		out[a] = s
		if s > maxS {
			maxS = s
		}
	}
	total := 0.0
	for a := 0; a < m.k; a++ {
		out[a] = math.Exp(out[a] - maxS)
		total += out[a]
	}
	for a := 0; a < m.k; a++ {
		out[a] /= total
	}
}

// Probabilities returns P(a|x) for each action.
func (m *Multinomial) Probabilities(x core.Vector) []float64 {
	d := len(m.W[0])
	row := make([]float64, d)
	for j := 0; j < d-1 && j < len(x); j++ {
		row[j] = x[j]
	}
	row[d-1] = 1
	out := make([]float64, m.k)
	m.softmax(row, out)
	return out
}
