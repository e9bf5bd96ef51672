package sim

// Mutex is a mutual-exclusion lock in virtual time with FIFO hand-off.
type Mutex struct {
	sim     *Simulation
	held    bool
	waiters fifo[*Proc]
}

// NewMutex returns an unlocked mutex.
func NewMutex(s *Simulation) *Mutex { return &Mutex{sim: s} }

// Lock acquires the mutex, blocking in virtual time while it is held.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	m.waiters.push(p)
	p.block(blockedMutex)
	// Ownership was transferred to us by Unlock; m.held stays true.
}

// TryLock acquires the mutex if it is free.
func (m *Mutex) TryLock() bool {
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.held }

// Waiters returns the number of processes queued on the mutex.
func (m *Mutex) Waiters() int { return m.waiters.len() }

// Unlock releases the mutex, handing it to the longest-waiting process if
// any.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: unlock of unlocked mutex")
	}
	if m.waiters.len() == 0 {
		m.held = false
		return
	}
	m.waiters.pop().wake(m.sim.now) // ownership transfers; held remains true
}

// Semaphore is a counting semaphore in virtual time with FIFO hand-off.
type Semaphore struct {
	sim     *Simulation
	avail   int
	waiters fifo[semWaiter]
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(s *Simulation, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Semaphore{sim: s, avail: n}
}

// Available returns the number of free permits.
func (sm *Semaphore) Available() int { return sm.avail }

// Acquire takes n permits, blocking in virtual time until available.
// FIFO ordering is strict: a small request queued behind a large one
// waits, preventing starvation.
func (sm *Semaphore) Acquire(p *Proc, n int) {
	if n <= 0 {
		panic("sim: non-positive semaphore acquire")
	}
	if sm.waiters.len() == 0 && sm.avail >= n {
		sm.avail -= n
		return
	}
	sm.waiters.push(semWaiter{p: p, n: n})
	p.block(blockedSemaphore)
}

// Release returns n permits and wakes as many queued waiters as can now
// be satisfied, in FIFO order.
func (sm *Semaphore) Release(n int) {
	if n <= 0 {
		panic("sim: non-positive semaphore release")
	}
	sm.avail += n
	for sm.waiters.len() > 0 && sm.avail >= sm.waiters.at(0).n {
		w := sm.waiters.pop()
		sm.avail -= w.n
		w.p.wake(sm.sim.now)
	}
}

// Barrier blocks processes until a fixed number have arrived, then
// releases the whole generation at once. It is reusable.
type Barrier struct {
	sim     *Simulation
	n       int
	arrived []*Proc
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(s *Simulation, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{sim: s, n: n}
}

// Wait blocks until n processes (including the caller) have called Wait.
func (b *Barrier) Wait(p *Proc) {
	if len(b.arrived) == b.n-1 {
		for _, q := range b.arrived {
			q.wake(b.sim.now)
		}
		b.arrived = b.arrived[:0]
		return
	}
	b.arrived = append(b.arrived, p)
	p.block(blockedBarrier)
}

// WaitGroup waits for a counter to reach zero, in virtual time.
type WaitGroup struct {
	sim     *Simulation
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a wait group with counter zero.
func NewWaitGroup(s *Simulation) *WaitGroup { return &WaitGroup{sim: s} }

// Add adds delta to the counter. If the counter reaches zero, waiters are
// released; it must never go negative.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative waitgroup counter")
	}
	if wg.count == 0 {
		for _, q := range wg.waiters {
			q.wake(wg.sim.now)
		}
		wg.waiters = wg.waiters[:0]
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.block(blockedWaitGroup)
}
