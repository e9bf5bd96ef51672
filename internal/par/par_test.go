package par

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"camc/internal/sim"
)

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got := Map(workers, 50, func(i int) int { return i * i })
		if len(got) != 50 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestDoRunsEveryCellOnce(t *testing.T) {
	var hits [257]atomic.Int32
	Do(8, len(hits), func(i int) { hits[i].Add(1) })
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

func TestDoEmpty(t *testing.T) {
	Do(4, 0, func(int) { t.Fatal("cell ran") })
	if got := Map(4, 0, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("len=%d", len(got))
	}
}

// TestDoPanicLowestIndex checks the deterministic panic contract: with
// several failing cells, the re-raised panic is the lowest-index one
// regardless of worker count, and non-panicking cells still complete.
func TestDoPanicLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var ran [64]atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			Do(workers, len(ran), func(i int) {
				ran[i].Add(1)
				if i == 7 || i == 9 || i == 63 {
					panic(i)
				}
			})
			return nil
		}()
		if got != 7 {
			t.Fatalf("workers=%d: recovered %v, want 7", workers, got)
		}
		// Sequential (workers<=1) stops at the first panic like a plain
		// loop; parallel runs everything.
		if workers > 1 {
			for i := range ran {
				if ran[i].Load() != 1 {
					t.Fatalf("workers=%d: cell %d did not run", workers, i)
				}
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("Workers(3)")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("Workers default")
	}
}

// TestParallelSimsShareWorkers runs simulation cells on several
// goroutines at once, as the -j sweep engine does: every Run takes
// coroutine workers from, and returns them to, the one package-wide idle
// list in sim. Each cell must still match the sequential result, and
// under -race the hand-over of workers between goroutines must be free
// of data races.
func TestParallelSimsShareWorkers(t *testing.T) {
	type outcome struct {
		now    sim.Time
		events uint64
	}
	cell := func(i int) outcome {
		s := sim.New()
		ch := sim.NewChan[int](s, 1)
		for r := 0; r < 8; r++ {
			r := r
			s.Spawn(fmt.Sprintf("r%d", r), func(p *sim.Proc) {
				for k := 0; k < 16; k++ {
					p.Sleep(float64(1 + (i+r+k)%3))
					if r%2 == 0 {
						ch.Send(p, k)
					} else {
						ch.Recv(p)
					}
				}
			})
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		return outcome{s.Now(), s.EventsProcessed()}
	}
	const cells = 64
	want := Map(1, cells, cell)
	for _, workers := range []int{2, 4} {
		if got := Map(workers, cells, cell); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel cells %v differ from sequential %v", workers, got, want)
		}
	}
}
