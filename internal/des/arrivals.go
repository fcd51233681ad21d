package des

import (
	"errors"
	"math/rand"
)

// ArrivalProcess generates a stream of arrival events on a Simulator.
// Each arrival invokes the handler with the arrival's index.
type ArrivalProcess struct {
	sim     *Simulator
	next    func() float64 // inter-arrival gap sampler
	handler func(i int)
	count   int
	limit   int
}

// NewPoissonArrivals schedules arrivals with exponential inter-arrival gaps
// (rate = arrivals per unit virtual time), stopping after limit arrivals
// (limit <= 0 means unlimited; pair it with Simulator.Run's horizon).
func NewPoissonArrivals(sim *Simulator, r *rand.Rand, rate float64, limit int, handler func(i int)) (*ArrivalProcess, error) {
	if rate <= 0 {
		return nil, errors.New("des: arrival rate must be positive")
	}
	if handler == nil {
		return nil, errors.New("des: nil arrival handler")
	}
	p := &ArrivalProcess{
		sim:     sim,
		next:    func() float64 { return r.ExpFloat64() / rate },
		handler: handler,
		limit:   limit,
	}
	return p, p.schedule()
}

func (p *ArrivalProcess) schedule() error {
	_, err := p.sim.After(p.next(), p.fire)
	return err
}

func (p *ArrivalProcess) fire() {
	i := p.count
	p.count++
	p.handler(i)
	if p.limit > 0 && p.count >= p.limit {
		return
	}
	// Scheduling from inside an event can't fail: delay >= 0.
	_ = mustEvent(p.sim.After(p.next(), p.fire))
}

func mustEvent(e *Event, err error) *Event {
	if err != nil {
		panic(err) // unreachable: non-negative delays never fail
	}
	return e
}
