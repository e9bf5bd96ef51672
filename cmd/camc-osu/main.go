// Command camc-osu prints OSU-microbenchmark-style latency tables for
// any collective, library, or named algorithm on the simulated
// architectures — the day-to-day exploration tool next to the
// figure-oriented camc-bench.
//
// Usage:
//
//	camc-osu -coll bcast                          # proposed design, KNL
//	camc-osu -coll scatter -lib mvapich2 -arch power8
//	camc-osu -coll gather -algo throttle-4 -procs 32
//	camc-osu -coll allgather -mech xpmem
//	camc-osu -list-algos -coll bcast
package main

import (
	"flag"
	"fmt"
	"os"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/libs"
	"camc/internal/measure"
	"camc/internal/mpi"
	"camc/internal/tuner"
)

func main() {
	var (
		collF  = flag.String("coll", "", "collective: scatter, gather, bcast, allgather, alltoall, reduce")
		libF   = flag.String("lib", "proposed", "library: proposed, mvapich2, intelmpi, openmpi")
		algoF  = flag.String("algo", "", "specific algorithm name (overrides -lib; see -list-algos)")
		archF  = flag.String("arch", "knl", "architecture: knl, broadwell, power8")
		procs  = flag.Int("procs", 0, "process count (default: full subscription)")
		minF   = flag.Int64("min", 1<<10, "smallest message size in bytes")
		maxF   = flag.Int64("max", 4<<20, "largest message size in bytes")
		mechF  = flag.String("mech", "cma", "kernel-assist mechanism: cma, knem, limic, xpmem")
		listA  = flag.Bool("list-algos", false, "list the algorithm names for -coll")
		rootF  = flag.Int("root", 0, "root rank for rooted collectives")
		itersF = flag.Int("iters", 1, "timed invocations per size")
	)
	flag.Parse()

	a, err := arch.ByName(*archF)
	if err != nil {
		fatal(err)
	}
	if *collF == "" {
		flag.Usage()
		os.Exit(2)
	}
	kind := core.Kind(*collF)
	if *listA {
		for _, al := range tuner.Candidates(kind, a) {
			fmt.Println(al.Name)
		}
		return
	}

	var algo func(*mpi.Rank, core.Args)
	var label string
	switch {
	case *algoF != "":
		for _, al := range tuner.Candidates(kind, a) {
			if al.Name == *algoF {
				algo = al.Run
				label = al.Name
			}
		}
		if algo == nil {
			fatal(fmt.Errorf("unknown algorithm %q for %s (use -list-algos)", *algoF, kind))
		}
	case kind == core.KindReduce:
		algo, label = core.TunedReduce, "tuned-reduce"
	default:
		l, ok := libs.ByName(*libF)
		if !ok {
			fatal(fmt.Errorf("unknown library %q", *libF))
		}
		algo, label = l.Collective(kind), l.Name
	}

	var mech kernel.Mechanism
	switch *mechF {
	case "cma":
		mech = kernel.MechCMA
	case "knem":
		mech = kernel.MechKNEM
	case "limic":
		mech = kernel.MechLiMIC
	case "xpmem":
		mech = kernel.MechXPMEM
	default:
		fatal(fmt.Errorf("unknown mechanism %q", *mechF))
	}

	np := *procs
	if np == 0 {
		np = a.DefaultProcs
	}
	fmt.Printf("# CAMC %s latency test\n", kind)
	fmt.Printf("# %s, %d processes, %s via %s\n", a.Display, np, label, mech)
	fmt.Printf("%-12s %16s\n", "# Size", "Latency (us)")
	for size := *minF; size <= *maxF; size <<= 1 {
		lat := measure.Collective(a, kind, algo, size, measure.Options{
			Procs: np, Root: *rootF, Iters: *itersF, Mechanism: mech,
		})
		fmt.Printf("%-12d %16.2f\n", size, lat)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "camc-osu:", err)
	os.Exit(2)
}
