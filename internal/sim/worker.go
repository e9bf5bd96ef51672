//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// worker is a coroutine (iter.Pull) that runs process bodies for Run's
// dispatcher loop. Resuming it runs the assigned process until the body
// blocks, which yields the next process to dispatch, or finishes, which
// yields nil and parks the coroutine until the worker is handed another
// process.
//
// Workers are pooled across simulations: creating a coroutine costs a
// dozen allocations, a reused one costs none. An idle worker references
// no Proc and hence no Simulation, so a simulation dropped without Reset
// (a sync.Pool eviction, a one-shot mpi.Run) leaves nothing parked
// behind it. The pool is a capped list rather than a sync.Pool because
// an idle worker is a parked goroutine: a sync.Pool would drop it at a
// GC without ending its coroutine, leaving the goroutine parked for good.
type worker struct {
	p *Proc // process being run; nil while idle
	// next resumes the coroutine and returns the process to dispatch
	// next: nil when p finished, or when it blocked with the event heap
	// drained.
	next func() (*Proc, bool)
	// yield, called from inside p's body, suspends the coroutine,
	// handing the next process to the dispatcher.
	yield func(*Proc) bool
	stop  func()
}

// MaxIdleWorkers caps the package-wide list of idle workers. It covers
// the 2048-rank spawn waves of the x11 world cells twice over; a worker
// released while the list is full ends its coroutine instead, so wider
// runs (the x10 ladders, the 64k-rank scale test) start their extra
// workers afresh.
const MaxIdleWorkers = 4096

var idleWorkers struct {
	sync.Mutex
	list []*worker
}

// getWorker takes an idle worker off the list, or starts a new one.
func getWorker() *worker {
	idleWorkers.Lock()
	if n := len(idleWorkers.list); n > 0 {
		w := idleWorkers.list[n-1]
		idleWorkers.list[n-1] = nil
		idleWorkers.list = idleWorkers.list[:n-1]
		idleWorkers.Unlock()
		return w
	}
	idleWorkers.Unlock()
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker returns a worker whose process has finished to the idle
// list. Only the dispatcher calls it, after next has returned: a
// worker that re-listed itself from inside its coroutine could be taken
// and resumed by another goroutine's Run before it had parked.
func putWorker(w *worker) {
	w.p = nil
	idleWorkers.Lock()
	if len(idleWorkers.list) < MaxIdleWorkers {
		idleWorkers.list = append(idleWorkers.list, w)
		idleWorkers.Unlock()
		return
	}
	idleWorkers.Unlock()
	w.stop()
}

// loop is the coroutine body: run the assigned process to completion,
// then park until resumed with the next one (or stopped).
func (w *worker) loop(yield func(*Proc) bool) {
	w.yield = yield
	for {
		w.p.run()
		if !yield(nil) {
			return
		}
	}
}
