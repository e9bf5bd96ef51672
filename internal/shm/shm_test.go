package shm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/sim"
)

// fixture builds a node with n processes and a transport.
func fixture(n int, copyData bool) (*sim.Simulation, *kernel.Node, *Transport, []*kernel.Process) {
	s := sim.New()
	node := kernel.NewNode(s, arch.KNL())
	node.CopyData = copyData
	procs := make([]*kernel.Process, n)
	for i := range procs {
		procs[i] = node.NewProcess(16 << 20)
	}
	return s, node, New(node, n), procs
}

func TestCtlRoundtrip(t *testing.T) {
	s, _, tr, _ := fixture(2, false)
	var got int64
	s.Spawn("sender", func(p *sim.Proc) { tr.SendCtl(p, 0, 1, 7, 12345) })
	s.Spawn("receiver", func(p *sim.Proc) { got = tr.RecvCtl(p, 0, 1, 7) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 12345 {
		t.Fatalf("ctl value = %d", got)
	}
	if s.Now() < arch.KNL().ShmLatency {
		t.Fatalf("ctl message ignored shm latency: %g", s.Now())
	}
}

func TestCtlTagMismatchPanics(t *testing.T) {
	s, _, tr, _ := fixture(2, false)
	s.Spawn("sender", func(p *sim.Proc) { tr.SendCtl(p, 0, 1, 7, 1) })
	s.Spawn("receiver", func(p *sim.Proc) { tr.RecvCtl(p, 0, 1, 8) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected tag-mismatch panic")
		}
	}()
	_ = s.Run()
}

func TestDataTransferMovesBytes(t *testing.T) {
	s, _, tr, procs := fixture(2, true)
	const size = 100000 // spans many cells
	sa := procs[0].Alloc(size)
	da := procs[1].Alloc(size)
	src := procs[0].Bytes(sa, size)
	for i := range src {
		src[i] = byte(i * 31)
	}
	s.Spawn("sender", func(p *sim.Proc) { tr.Send(p, 0, 1, 5, procs[0], sa, size) })
	s.Spawn("receiver", func(p *sim.Proc) { tr.Recv(p, 0, 1, 5, procs[1], da, size) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(procs[0].Bytes(sa, size), procs[1].Bytes(da, size)) {
		t.Fatal("payload mismatch")
	}
}

func TestZeroByteMessage(t *testing.T) {
	s, _, tr, procs := fixture(2, true)
	s.Spawn("sender", func(p *sim.Proc) { tr.Send(p, 0, 1, 5, procs[0], 0, 0) })
	s.Spawn("receiver", func(p *sim.Proc) { tr.Recv(p, 0, 1, 5, procs[1], 0, 0) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoCopyCostDominatesCMA(t *testing.T) {
	// The two-copy transport must cost roughly 2x the single memcpy for
	// large messages (the core premise of kernel-assisted transfers).
	s, _, tr, procs := fixture(2, false)
	const size = 4 << 20
	var elapsed float64
	s.Spawn("sender", func(p *sim.Proc) { tr.Send(p, 0, 1, 5, procs[0], 0, size) })
	s.Spawn("receiver", func(p *sim.Proc) {
		start := p.Now()
		tr.Recv(p, 0, 1, 5, procs[1], 0, size)
		elapsed = p.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	a := arch.KNL()
	oneCopy := float64(size) * a.ShmCopyBeta()
	if elapsed < oneCopy || elapsed > 3*oneCopy {
		t.Fatalf("two-copy transfer of 4M = %.1fus, want within [1x,3x] of one copy %.1fus", elapsed, oneCopy)
	}
}

func TestPipelineOverlap(t *testing.T) {
	// Sender and receiver overlap cell copies, so the total time is well
	// below the serial sum of both copies.
	s, _, tr, procs := fixture(2, false)
	const size = 1 << 20
	s.Spawn("sender", func(p *sim.Proc) { tr.Send(p, 0, 1, 5, procs[0], 0, size) })
	s.Spawn("receiver", func(p *sim.Proc) { tr.Recv(p, 0, 1, 5, procs[1], 0, size) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	a := arch.KNL()
	cells := float64((size + a.ShmCellSize - 1) / a.ShmCellSize)
	serial := 2 * (float64(size)*a.ShmCopyBeta() + cells*a.ShmCellOverhead)
	if s.Now() > 0.75*serial {
		t.Fatalf("no pipelining: %.1fus vs serial %.1fus", s.Now(), serial)
	}
}

func TestExchangeBidirectional(t *testing.T) {
	s, _, tr, procs := fixture(2, true)
	const sizeA, sizeB = 300000, 50000 // asymmetric, both above queue depth
	a0 := procs[0].Alloc(sizeA)
	r0 := procs[0].Alloc(sizeB)
	a1 := procs[1].Alloc(sizeB)
	r1 := procs[1].Alloc(sizeA)
	s0 := procs[0].Bytes(a0, sizeA)
	for i := range s0 {
		s0[i] = byte(i)
	}
	s1 := procs[1].Bytes(a1, sizeB)
	for i := range s1 {
		s1[i] = byte(i * 3)
	}
	s.Spawn("p0", func(p *sim.Proc) { tr.Exchange(p, 0, 1, 1, 9, procs[0], a0, sizeA, r0, sizeB) })
	s.Spawn("p1", func(p *sim.Proc) { tr.Exchange(p, 1, 0, 0, 9, procs[1], a1, sizeB, r1, sizeA) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(procs[1].Bytes(r1, sizeA), procs[0].Bytes(a0, sizeA)) {
		t.Fatal("A->B payload mismatch")
	}
	if !bytes.Equal(procs[0].Bytes(r0, sizeB), procs[1].Bytes(a1, sizeB)) {
		t.Fatal("B->A payload mismatch")
	}
}

func TestExchangeNoDeadlockLargeSymmetric(t *testing.T) {
	// Symmetric exchange far above the queue depth must complete.
	s, _, tr, procs := fixture(2, false)
	const size = 8 << 20
	s.Spawn("p0", func(p *sim.Proc) { tr.Exchange(p, 0, 1, 1, 9, procs[0], 0, size, kernel.Addr(size), size) })
	s.Spawn("p1", func(p *sim.Proc) { tr.Exchange(p, 1, 0, 0, 9, procs[1], 0, size, kernel.Addr(size), size) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBcast64AllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < n; root++ {
			s, _, tr, _ := fixture(n, false)
			got := make([]int64, n)
			for i := 0; i < n; i++ {
				i := i
				s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
					v := int64(0)
					if i == root {
						v = 777
					}
					got[i] = tr.Bcast64(p, i, root, v)
				})
			}
			if err := s.Run(); err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			for i, v := range got {
				if v != 777 {
					t.Fatalf("n=%d root=%d rank=%d got %d", n, root, i, v)
				}
			}
		}
	}
}

func TestGather64(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		for _, root := range []int{0, n - 1} {
			s, _, tr, _ := fixture(n, false)
			var out []int64
			for i := 0; i < n; i++ {
				i := i
				s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
					res := tr.Gather64(p, i, root, int64(100+i))
					if i == root {
						out = res
					} else if res != nil {
						t.Errorf("non-root got non-nil gather result")
					}
				})
			}
			if err := s.Run(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i, v := range out {
				if v != int64(100+i) {
					t.Fatalf("n=%d root=%d out[%d] = %d", n, root, i, v)
				}
			}
		}
	}
}

func TestAllgather64(t *testing.T) {
	for _, n := range []int{1, 2, 6, 9} {
		s, _, tr, _ := fixture(n, false)
		outs := make([][]int64, n)
		for i := 0; i < n; i++ {
			i := i
			s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				outs[i] = tr.Allgather64(p, i, int64(i*i))
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, out := range outs {
			for j, v := range out {
				if v != int64(j*j) {
					t.Fatalf("n=%d rank %d out[%d] = %d", n, i, j, v)
				}
			}
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 7, 32} {
		s, _, tr, _ := fixture(n, false)
		var minExit float64 = 1e18
		var maxArrive float64
		for i := 0; i < n; i++ {
			i := i
			s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				p.Sleep(float64(i * 10)) // stagger arrivals
				if p.Now() > maxArrive {
					maxArrive = p.Now()
				}
				tr.Barrier(p, i)
				if p.Now() < minExit {
					minExit = p.Now()
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if minExit < maxArrive {
			t.Fatalf("n=%d: a rank left the barrier at %.2f before the last arrival %.2f", n, minExit, maxArrive)
		}
	}
}

func TestNotify(t *testing.T) {
	s, _, tr, _ := fixture(2, false)
	var order []string
	s.Spawn("a", func(p *sim.Proc) {
		p.Sleep(5)
		order = append(order, "signal")
		tr.Notify(p, 0, 1)
	})
	s.Spawn("b", func(p *sim.Proc) {
		tr.WaitNotify(p, 0, 1)
		order = append(order, "woken")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[signal woken]" {
		t.Fatalf("order = %v", order)
	}
}

func TestCollectivesPropertyRandomSizes(t *testing.T) {
	f := func(n8 uint8, root8 uint8, val int64) bool {
		n := int(n8%20) + 1
		root := int(root8) % n
		s, _, tr, _ := fixture(n, false)
		ok := true
		for i := 0; i < n; i++ {
			i := i
			s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				v := int64(0)
				if i == root {
					v = val
				}
				if got := tr.Bcast64(p, i, root, v); got != val {
					ok = false
				}
			})
		}
		return s.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExchangePropertyRandomSizes(t *testing.T) {
	// Random asymmetric exchanges around a 3-rank ring must terminate
	// and deliver exact payloads.
	f := func(sA, sB, sC uint16, seed int64) bool {
		sizes := []int64{int64(sA), int64(sB), int64(sC)}
		s, _, tr, procs := fixture(3, true)
		addrs := make([]kernel.Addr, 3)
		raddr := make([]kernel.Addr, 3)
		for i := range addrs {
			addrs[i] = procs[i].Alloc(sizes[i] + 1)
			raddr[i] = procs[i].Alloc(sizes[(i+2)%3] + 1)
			buf := procs[i].Bytes(addrs[i], sizes[i])
			for j := range buf {
				buf[j] = byte(int64(i)*31 + int64(j) + seed)
			}
		}
		for i := 0; i < 3; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				// send to (i+1), recv from (i-1)
				tr.Exchange(p, i, (i+1)%3, (i+2)%3, 4, procs[i],
					addrs[i], sizes[i], raddr[i], sizes[(i+2)%3])
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			from := (i + 2) % 3
			if !bytes.Equal(procs[i].Bytes(raddr[i], sizes[from]), procs[from].Bytes(addrs[from], sizes[from])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// pairs lists the (src, dst) pairs whose queue the transport has
// created, in either queue index.
func (t *Transport) pairs() map[[2]int]bool {
	got := map[[2]int]bool{}
	for i, q := range t.queues {
		if q != nil {
			got[[2]int{i / t.nranks, i % t.nranks}] = true
		}
	}
	for k := range t.lazy {
		got[[2]int{int(k / int64(t.nranks)), int(k % int64(t.nranks))}] = true
	}
	return got
}

// TestQueuesCreatedOnFirstUse pins the lazy per-pair queues: a fresh
// transport owns no channel, and a 64-rank Allgather64 creates exactly
// the queues of the pairs it messages — the gather edges r -> 0 and the
// binomial broadcast edges parent -> child — not all 64² of them.
func TestQueuesCreatedOnFirstUse(t *testing.T) {
	const n = 64
	s, _, tr, _ := fixture(n, false)
	if got := tr.pairs(); len(got) != 0 {
		t.Fatalf("New(node, %d) created %d queues, want 0", n, len(got))
	}
	for r := 0; r < n; r++ {
		r := r
		s.Spawn(fmt.Sprintf("r%d", r), func(p *sim.Proc) { tr.Allgather64(p, r, int64(r)) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]bool{}
	for r := 1; r < n; r++ {
		want[[2]int{r, 0}] = true
		mask := 1
		for mask<<1 <= r {
			mask <<= 1
		}
		want[[2]int{r - mask, r}] = true
	}
	got := tr.pairs()
	if len(got) != len(want) {
		t.Errorf("Allgather64 over %d ranks created %d queues, want %d", n, len(got), len(want))
	}
	for pair := range want {
		if !got[pair] {
			t.Errorf("no queue for used pair %d -> %d", pair[0], pair[1])
		}
	}
}
