package sim

// Chan is a typed message channel operating in virtual time. A Chan with
// capacity zero is a rendezvous channel: Send blocks until a receiver
// takes the value. With capacity > 0, Send blocks only when the buffer is
// full. Message order and waiter wake-up order are FIFO, so channel
// behaviour is deterministic.
//
// Chan transfers are instantaneous in virtual time: any transfer cost is
// the caller's responsibility (the transports layer costs separately).
type Chan[T any] struct {
	sim *Simulation
	cap int
	buf fifo[T]

	sendq fifo[*waiter[T]] // parked senders, each holding its value
	recvq fifo[*waiter[T]] // parked receivers

	// free lists the waiters of resumed senders and receivers, linked
	// through their next fields, so steady-state blocking allocates
	// nothing.
	free *waiter[T]
}

// waiter is a process parked in Send or Recv.
type waiter[T any] struct {
	p    *Proc
	val  T      // the value sent; for a receiver, the value received
	ok   bool   // value transferred (vs. timed out)
	tm   *timer // deadline, nil for untimed waits
	next *waiter[T]
}

// disarm cancels a timed waiter's deadline. Every wake path must call it
// before wake: a timed waiter has two possible resume sources (its timer
// and its peer), and a parked process may be scheduled to resume only
// once.
func (w *waiter[T]) disarm() {
	if w.tm != nil {
		w.tm.cancel()
		w.tm = nil
	}
}

// NewChan creates a channel with the given buffer capacity (0 for
// rendezvous semantics).
func NewChan[T any](s *Simulation, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{sim: s, cap: capacity}
}

// Len returns the number of buffered messages.
func (c *Chan[T]) Len() int { return c.buf.len() }

// Send delivers v, blocking in virtual time until the channel can accept
// it.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.TrySend(v) {
		return
	}
	sw := c.enqueue(&c.sendq, p, v, nil)
	p.block(blockedChanSend)
	c.release(sw)
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted.
func (c *Chan[T]) TrySend(v T) bool {
	// Direct hand-off to a waiting receiver preserves FIFO order only
	// when no messages are buffered ahead of v.
	if c.recvq.len() > 0 && c.buf.len() == 0 {
		w := c.recvq.pop()
		w.val, w.ok = v, true
		w.disarm()
		w.p.wake(c.sim.now)
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv blocks in virtual time until a message is available and returns it.
func (c *Chan[T]) Recv(p *Proc) T {
	if v, ok := c.TryRecv(); ok {
		return v
	}
	var zero T
	rw := c.enqueue(&c.recvq, p, zero, nil)
	p.block(blockedChanRecv)
	if !rw.ok {
		panic("sim: chan recv woke without a value")
	}
	v := rw.val
	c.release(rw)
	return v
}

// TryRecv returns a message if one is immediately available.
func (c *Chan[T]) TryRecv() (T, bool) {
	if c.buf.len() > 0 {
		v := c.buf.pop()
		// A parked sender can now occupy the freed slot.
		if c.sendq.len() > 0 {
			c.buf.push(c.takeSender())
		}
		return v, true
	}
	if c.sendq.len() > 0 { // rendezvous: take directly from a parked sender
		return c.takeSender(), true
	}
	var zero T
	return zero, false
}

// takeSender dequeues the longest-parked sender, wakes it and returns
// its value.
func (c *Chan[T]) takeSender() T {
	sw := c.sendq.pop()
	sw.ok = true
	sw.disarm()
	sw.p.wake(c.sim.now)
	return sw.val
}

// RecvTimeout is Recv with a virtual-time deadline: it returns (v, true)
// if a message arrives within d microseconds of now, and (zero, false)
// otherwise. A message available immediately never times out, and a
// receive that completes in time is indistinguishable from a plain Recv —
// same wake instant, same dispatch count (the cancelled deadline event is
// discarded unprocessed). When a message lands exactly at the deadline
// the timeout wins: its event was scheduled first, so it has the earlier
// sequence number at the tied instant.
func (c *Chan[T]) RecvTimeout(p *Proc, d Time) (T, bool) {
	if d < 0 {
		panic("sim: negative recv timeout")
	}
	if v, ok := c.TryRecv(); ok {
		return v, true
	}
	var zero T
	rw := c.enqueue(&c.recvq, p, zero, c.sim.scheduleTimer(p, c.sim.now+d))
	p.block(blockedChanRecvTimed)
	v, ok := rw.val, rw.ok
	if !ok {
		// The deadline fired: withdraw from the waiter queue so a later
		// sender cannot hand a value (and a wake) to a process that left.
		withdraw(&c.recvq, rw)
	}
	c.release(rw)
	return v, ok
}

// SendTimeout is Send with a virtual-time deadline: it reports whether
// the channel accepted v within d microseconds of now. Like RecvTimeout,
// a send that completes in time is indistinguishable from a plain Send.
func (c *Chan[T]) SendTimeout(p *Proc, v T, d Time) bool {
	if d < 0 {
		panic("sim: negative send timeout")
	}
	if c.TrySend(v) {
		return true
	}
	sw := c.enqueue(&c.sendq, p, v, c.sim.scheduleTimer(p, c.sim.now+d))
	p.block(blockedChanSendTimed)
	ok := sw.ok
	if !ok {
		withdraw(&c.sendq, sw)
	}
	c.release(sw)
	return ok
}

// enqueue queues a waiter for p on q (sendq or recvq), reusing one from
// the free list when available.
func (c *Chan[T]) enqueue(q *fifo[*waiter[T]], p *Proc, v T, tm *timer) *waiter[T] {
	w := c.free
	if w != nil {
		c.free = w.next
	} else {
		w = new(waiter[T])
	}
	w.p, w.val, w.tm, w.next = p, v, tm, nil
	q.push(w)
	return w
}

// release recycles the waiter of a resumed process, which has left its
// queue. A fired deadline's timer is already back on the simulation's
// free list, so the reference is dropped, not cancelled.
func (c *Chan[T]) release(w *waiter[T]) {
	*w = waiter[T]{next: c.free}
	c.free = w
}

// fifo is a ring-buffer queue that reuses its backing array: pops free a
// slot that later pushes wrap around into, where a re-sliced head
// (q = q[1:]) would leak the front of the array and force append to
// re-allocate. A queue cycling at a steady depth allocates only while it
// first grows to that depth.
//
// The indices are int32 to keep the struct at 32 bytes: every Chan
// embeds three fifos, and the cluster fabric keeps thousands of channels
// alive.
type fifo[T any] struct {
	buf  []T
	head int32 // index of the oldest element
	n    int32 // elements queued
}

func (q *fifo[T]) len() int { return int(q.n) }

// slot maps queue position i (0 = oldest) to its index in buf.
func (q *fifo[T]) slot(i int) int {
	i += int(q.head)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

func (q *fifo[T]) push(v T) {
	if q.len() == len(q.buf) {
		nb := make([]T, max(1, 2*len(q.buf)))
		k := copy(nb, q.buf[q.head:])
		copy(nb[k:], q.buf[:q.head])
		q.buf, q.head = nb, 0
	}
	q.buf[q.slot(q.len())] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop references held by the slot
	q.head = int32(q.slot(1))
	q.n--
	return v
}

// at returns the element at queue position i.
func (q *fifo[T]) at(i int) T { return q.buf[q.slot(i)] }

// withdraw removes w from q, keeping the order of the rest; it is a
// no-op when w is not queued.
func withdraw[W comparable](q *fifo[W], w W) {
	for i := 0; i < q.len(); i++ {
		if q.at(i) != w {
			continue
		}
		last := q.len() - 1
		for ; i < last; i++ {
			q.buf[q.slot(i)] = q.buf[q.slot(i+1)]
		}
		var zero W
		q.buf[q.slot(last)] = zero
		q.n--
		return
	}
}
