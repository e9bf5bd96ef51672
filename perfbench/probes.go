package main

import (
	"time"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/mpi"
	"camc/internal/sim"
)

// The probes run only in the traced run. Each isolates one layer
// boundary the workloads cross many times per op.

// probeChan ping-pongs n round trips between two Procs over sim.Chan at
// capacity 0 and 1 and returns the host ns per message.
func probeChan(tr *tracer, n int) (float64, error) {
	id := tr.begin("probe.sim.Chan")
	defer tr.end(id)
	var total time.Duration
	for _, capacity := range []int{0, 1} {
		s := sim.New()
		ping, pong := sim.NewChan[int](s, capacity), sim.NewChan[int](s, capacity)
		s.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ping.Send(p, i)
				pong.Recv(p)
			}
		})
		s.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				pong.Send(p, ping.Recv(p))
			}
		})
		t := time.Now()
		if err := s.Run(); err != nil {
			return 0, err
		}
		total += time.Since(t)
	}
	return float64(total) / float64(4*n), nil
}

// probeVMRead has readers ranks each VMRead size bytes from rank 0 and
// returns the host ns spent and the pages read. copyData moves real
// bytes instead of cost only.
func probeVMRead(tr *tracer, a *arch.Profile, readers int, size int64, copyData bool) (float64, int64, error) {
	id := tr.begin("probe.kernel.VMRead")
	defer tr.end(id)
	const reps = 4
	procs := readers + 1
	c := mpi.New(mpi.Config{Arch: a, Procs: procs, CopyData: copyData, MemPerProc: 2*size + 1<<20})
	src := make([]kernel.Addr, procs)
	dst := make([]kernel.Addr, procs)
	for i := 0; i < procs; i++ {
		src[i] = c.Rank(i).Alloc(size)
		dst[i] = c.Rank(i).Alloc(size)
	}
	c.Start(func(r *mpi.Rank) {
		for k := 0; k < reps; k++ {
			r.Barrier()
			if r.ID > 0 {
				r.VMRead(dst[r.ID], 0, src[0], size)
			}
		}
		r.Barrier()
	})
	t := time.Now()
	err := c.Sim.Run()
	ns := float64(time.Since(t))
	pages := int64(readers) * reps * ((size + int64(a.PageSize) - 1) / int64(a.PageSize))
	return ns, pages, err
}

// probeShmRing runs rounds of a SendrecvShm ring (rank i sends to i+1,
// receives from i-1) and returns host us per ring round.
func probeShmRing(tr *tracer, a *arch.Profile, procs int, size int64, rounds int) (float64, error) {
	id := tr.begin("probe.shm.SendrecvShm")
	defer tr.end(id)
	c := mpi.New(mpi.Config{Arch: a, Procs: procs, MemPerProc: 2*size + 1<<20})
	send := make([]kernel.Addr, procs)
	recv := make([]kernel.Addr, procs)
	for i := 0; i < procs; i++ {
		send[i] = c.Rank(i).Alloc(size)
		recv[i] = c.Rank(i).Alloc(size)
	}
	c.Start(func(r *mpi.Rank) {
		for k := 0; k < rounds; k++ {
			r.SendrecvShm((r.ID+1)%procs, send[r.ID], size, (r.ID+procs-1)%procs, recv[r.ID], size)
		}
	})
	t := time.Now()
	err := c.Sim.Run()
	return float64(time.Since(t)) / 1e3 / float64(rounds), err
}
