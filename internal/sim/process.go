package sim

import "fmt"

// Process is a CSIM-style simulation process: model code that runs on
// its own goroutine but is scheduled hand-over-hand by the kernel so
// that exactly one process (or the kernel) executes at any moment.
//
// A process interacts with simulated time only through its methods:
// Hold advances the clock and Wait blocks on a Signal.  Returning from
// the process function terminates it.
type Process struct {
	k      *Kernel
	name   string
	resume chan struct{} // kernel -> process: you may run
	yield  chan struct{} // process -> kernel: I am done for now

	// runfn is the process's persistent wakeup closure: every Hold and
	// Signal fire schedules this one function, so blocking and
	// unblocking a process allocates nothing after Spawn.
	runfn func()
}

// Spawn creates a process named name running fn and schedules it to
// start at the current simulated time.
func (k *Kernel) Spawn(name string, fn func(p *Process)) {
	p := &Process{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	p.runfn = p.run
	go func() {
		<-p.resume // wait for first activation
		fn(p)
		p.yield <- struct{}{}
	}()
	k.After(0, p.runfn)
}

// run transfers control from the kernel to the process and waits for
// it to yield back.  It must only be called from kernel context, and
// only the process's own Hold, Wait or Spawn schedule it, so a process
// that has returned is never run again.
func (p *Process) run() {
	p.resume <- struct{}{}
	<-p.yield
}

// pause transfers control from the process back to the kernel.  It
// must only be called from process context, and returns when the
// kernel reactivates the process.
func (p *Process) pause() {
	p.yield <- struct{}{}
	<-p.resume
}

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.k.Now() }

// Hold suspends the process for dt of simulated time (CSIM's hold()).
func (p *Process) Hold(dt Time) {
	if !(dt >= 0) {
		panic(fmt.Sprintf("sim: process %q holding negative time %v", p.name, dt))
	}
	p.k.After(dt, p.runfn)
	p.pause()
}

// Signal is a condition that processes can Wait on; Fire wakes all
// waiters.  Signals carry no payload; guard data lives in the model.
type Signal struct {
	k       *Kernel
	waiters []*Process
}

// NewSignal creates a signal on kernel k.
func (k *Kernel) NewSignal() *Signal {
	return &Signal{k: k}
}

// Wait blocks the calling process until the signal fires.
func (p *Process) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.pause()
}

// Fire wakes every waiting process, in FIFO order, at the current time.
func (s *Signal) Fire() {
	waiters := s.waiters
	s.waiters = nil
	for _, w := range waiters {
		s.k.After(0, w.runfn)
	}
}
