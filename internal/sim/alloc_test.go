package sim

import (
	"fmt"
	"testing"
)

// The hot-path allocation budget. The seed dispatcher boxed every event
// through container/heap (~2 allocs per dispatch); the typed heap, the
// Sleep fast path, the Proc/timer free lists, the pooled coroutine
// workers and the Chan FIFOs and waiter free lists bring the steady
// state to zero. These tests pin exact bounds: the dispatch loop
// allocates nothing at all, and neither does a full warmed
// Reset+Spawn+Run cycle, channel traffic included.

func TestScheduleZeroAllocSteadyState(t *testing.T) {
	s := New()
	p := &Proc{sim: s, name: "x"}
	// Warm the heap's backing array, then assert the push/pop cycle
	// allocates nothing at all.
	for i := 0; i < 64; i++ {
		s.schedule(p, float64(i))
	}
	for len(s.events) > 0 {
		s.popEvent()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.schedule(p, 1)
		s.popEvent()
	})
	if allocs != 0 {
		t.Errorf("schedule+pop allocates %v per cycle, want exactly 0", allocs)
	}
}

func TestSleepSelfWakeAllocs(t *testing.T) {
	// One process running 1024 self-wake sleeps, re-run on a warmed
	// simulation via Reset: the Proc shell comes off the free list and
	// its coroutine off the worker pool, so the whole cycle allocates
	// nothing.
	const sleeps = 1024
	s := New()
	body := func(sp *Proc) {
		for k := 0; k < sleeps; k++ {
			sp.Sleep(0.5)
		}
	}
	cycle := func() {
		s.Reset()
		s.Spawn("solo", body)
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	cycle() // warm: first worker coroutine, heap backing, free lists
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Errorf("self-wake cycle of %d sleeps allocates %v, want 0", sleeps, allocs)
	}
}

func TestContendedDispatchAllocBound(t *testing.T) {
	// 16 processes ping-ponging sleeps: >3000 dispatches through the
	// heap per cycle, nearly each one a coroutine switch. With pooled
	// Procs and workers the cycle allocates nothing.
	const procs, sleeps = 16, 64
	s := New()
	names := make([]string, procs)
	bodies := make([]func(*Proc), procs)
	for p := 0; p < procs; p++ {
		p := p
		names[p] = fmt.Sprintf("p%d", p)
		bodies[p] = func(sp *Proc) {
			for k := 0; k < sleeps; k++ {
				sp.Sleep(float64(1 + (p+k)%3))
			}
		}
	}
	var events uint64
	cycle := func() {
		s.Reset()
		for p := 0; p < procs; p++ {
			s.Spawn(names[p], bodies[p])
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		events = s.EventsProcessed()
	}
	cycle()
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Errorf("contended cycle of %d events allocates %v, want 0", events, allocs)
	}
}

// cycleAllocs returns the allocations of one warmed Reset+Spawn+Run
// cycle of bodies on s. Channels and other state built once outside the
// cycle persist across it, so the figure is their steady-state cost.
func cycleAllocs(t *testing.T, s *Simulation, bodies ...func(*Proc)) float64 {
	t.Helper()
	names := []string{"a", "b"}
	cycle := func() {
		s.Reset()
		for i, body := range bodies {
			s.Spawn(names[i], body)
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	cycle() // warm: heap backing, free lists, FIFO backing arrays
	return testing.AllocsPerRun(20, cycle)
}

// TestChanZeroAllocSteadyState pins every Chan path at zero allocations
// once warm: buffer and waiter queues are ring buffers that keep their
// backing arrays, and blocked senders and receivers reuse waiter structs
// from the channel's free lists.
func TestChanZeroAllocSteadyState(t *testing.T) {
	const msgs = 64
	cases := []struct {
		name   string
		bodies func(s *Simulation) []func(*Proc)
	}{
		{"buffered send/recv", func(s *Simulation) []func(*Proc) {
			ch := NewChan[int](s, 4)
			return []func(*Proc){func(p *Proc) {
				for k := 0; k < msgs; k++ {
					for i := 0; i < 4; i++ {
						ch.Send(p, i)
					}
					for i := 0; i < 4; i++ {
						if ch.Recv(p) != i {
							panic("buffered FIFO order")
						}
					}
				}
			}}
		}},
		{"rendezvous block and wake", func(s *Simulation) []func(*Proc) {
			ch := NewChan[int](s, 0)
			return []func(*Proc){
				func(p *Proc) {
					for k := 0; k < msgs; k++ {
						ch.Send(p, k)
					}
				},
				func(p *Proc) {
					for k := 0; k < msgs; k++ {
						p.Sleep(1)
						if ch.Recv(p) != k {
							panic("rendezvous order")
						}
					}
				},
			}
		}},
		{"RecvTimeout hit", func(s *Simulation) []func(*Proc) {
			ch := NewChan[int](s, 0)
			return []func(*Proc){
				func(p *Proc) {
					for k := 0; k < msgs; k++ {
						if _, ok := ch.RecvTimeout(p, 10); !ok {
							panic("timed receive expired")
						}
					}
				},
				func(p *Proc) {
					for k := 0; k < msgs; k++ {
						p.Sleep(1)
						ch.Send(p, k)
					}
				},
			}
		}},
		{"RecvTimeout expiry", func(s *Simulation) []func(*Proc) {
			ch := NewChan[int](s, 0)
			return []func(*Proc){func(p *Proc) {
				for k := 0; k < msgs; k++ {
					if _, ok := ch.RecvTimeout(p, 1); ok {
						panic("value from an idle channel")
					}
				}
			}}
		}},
		{"SendTimeout expiry", func(s *Simulation) []func(*Proc) {
			ch := NewChan[int](s, 0)
			return []func(*Proc){func(p *Proc) {
				for k := 0; k < msgs; k++ {
					if ch.SendTimeout(p, k, 1) {
						panic("send accepted with no receiver")
					}
				}
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			if allocs := cycleAllocs(t, s, tc.bodies(s)...); allocs != 0 {
				t.Errorf("%s: warmed cycle of %d messages allocates %v, want 0", tc.name, msgs, allocs)
			}
		})
	}
}

func TestTimedWaitTimerReuse(t *testing.T) {
	// Timed waits in steady state must recycle their timer objects: a
	// long sequence of RecvTimeout expiries must not grow the timer
	// population. The assertion is structural — after warmup the free
	// list stops growing beyond one entry.
	s := New()
	ch := NewChan[int](s, 0)
	const waits = 64
	s.Spawn("waiter", func(sp *Proc) {
		for k := 0; k < waits; k++ {
			if _, ok := ch.RecvTimeout(sp, 1); ok {
				panic("unexpected value")
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.timerFree) > 1 {
		t.Errorf("timer free list grew to %d after %d timed waits, want at most 1 recycled timer", len(s.timerFree), waits)
	}
}
