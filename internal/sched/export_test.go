package sched

// AdmissionWork is a snapshot of an engine's admission work counters,
// for tests outside the package.
type AdmissionWork struct {
	Touched  int // queue entries the striped admission examined
	Prefix   int // of Touched: entries the staggered prefix walked
	Windows  int // ready FIFOs visited with a free window
	Admitted int // displays admitted, lifetime
	Requests int // references recorded in the current window
	Busy     int // busy virtual disks now
}

// AdmissionWork returns the striped technique's counters; it panics on
// other techniques.
func (e *Engine) AdmissionWork() AdmissionWork {
	st := e.tech.(*stripedTech)
	return AdmissionWork{
		Touched:  st.work.touched,
		Prefix:   st.work.prefix,
		Windows:  st.work.windows,
		Admitted: e.admittedTotal,
		Requests: e.requests,
		Busy:     st.busy,
	}
}

// CoalesceWork is a snapshot of an engine's Algorithm 2 work counters,
// for tests outside the package.
type CoalesceWork struct {
	Visited int // waiter-list entries walked, stale ones included
	Moves   int // streams moved to their ideal disk, lifetime
}

// CoalesceWork returns the striped technique's Algorithm 2 counters; it
// panics on other techniques.
func (e *Engine) CoalesceWork() CoalesceWork {
	st := e.tech.(*stripedTech)
	return CoalesceWork{Visited: st.cwork.visited, Moves: st.cwork.moves}
}
