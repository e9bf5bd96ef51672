package bench

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/measure"
)

// x8: the robustness experiment. Every cell runs one collective with
// real data movement under a deterministic fault scenario, verifies the
// payload landed exactly (a failed verification panics the sweep — the
// whole point is that degradation must be graceful), and reports the
// latency cost of surviving: retries with backoff for transient
// syscall failures, resumed short completions, inflated lock phases,
// stalled shm cells, straggler skew, and — when the retry budget
// against a peer is exhausted — the per-peer fallback from the kernel
// assist to the two-copy path.

// robustScenario is one column of the x8 tables. A nil cfg is the
// fault-free baseline.
type robustScenario struct {
	name string
	cfg  *fault.Config
}

func robustScenarios(o Options) []robustScenario {
	mk := func(name, spec string) robustScenario {
		cfg, err := fault.Parse(spec)
		if err != nil {
			panic(fmt.Sprintf("bench: x8 scenario %s: %v", name, err))
		}
		return robustScenario{name: name, cfg: &cfg}
	}
	scens := []robustScenario{{name: "fault-free"}}
	if !o.Quick {
		// One scenario per fault class, isolating its latency signature.
		scens = append(scens,
			mk("partials", "partial=0.4"),
			mk("eagain", "eagain=0.5"),
			mk("lock-spikes", "lockspike=0.3"),
			mk("shm-stalls", "shmstall=0.3"),
			mk("stragglers", "straggler=0.3,skew=50"),
			mk("light", "light"),
			mk("moderate", "moderate"),
		)
	}
	scens = append(scens, mk("heavy", "heavy"))
	if o.Fault != nil && o.Fault.Active() {
		// x8 runs without a liveness board, so a kill plan would turn into
		// a simulator deadlock here; the kill class applies to x9 (as the
		// -faults flag documents). Strip it and keep whatever else the
		// custom scenario injects — a kill-only plan contributes no column.
		cfg := *o.Fault
		cfg.KillProb = 0
		if cfg.Active() {
			scens = append(scens, robustScenario{name: "custom", cfg: &cfg})
		}
	}
	return scens
}

// robustCollectives is the collective matrix: one representative
// contention-aware algorithm per kind, covering the CMA read path
// (scatter, bcast, allgather), the CMA write path (gather), the
// symmetric pairwise exchange (alltoall) and the pt2pt rendezvous
// machinery those exercise.
func robustCollectives(o Options) []struct {
	name string
	kind core.Kind
	spec string
} {
	all := []struct {
		name string
		kind core.Kind
		spec string
	}{
		{"scatter/throttled-4", core.KindScatter, "throttled:4"},
		{"gather/throttled-4", core.KindGather, "throttled:4"},
		{"bcast/knomial-read-4", core.KindBcast, "knomial-read:4"},
		{"allgather/ring-src-read", core.KindAllgather, "ring-source-read"},
		{"alltoall/pairwise", core.KindAlltoall, "pairwise"},
	}
	if o.Quick {
		return all[:3]
	}
	return all
}

func init() {
	register(&Experiment{
		ID:    "x8",
		Title: "[extension] Robustness: graceful degradation under injected kernel faults",
		Tables: func(o Options) []Table {
			a := arch.Broadwell()
			if o.Arch != "" {
				a = o.archs(arch.Broadwell())[0]
			}
			// 256 KiB per rank = 64 pages = 4 contention chunks per
			// transfer, so partial-completion injection (which fires
			// between chunks) has room to act; 16 KiB quick cells keep the
			// other fault classes exercised cheaply.
			const procs = 8
			count := int64(256 << 10)
			if o.Quick {
				count = 16 << 10
			}
			scens := robustScenarios(o)
			colls := robustCollectives(o)

			type cell struct {
				lat float64
				st  fault.Stats
			}
			cells := parMap(o, len(colls)*len(scens), func(i int) cell {
				cl, sc := colls[i/len(scens)], scens[i%len(scens)]
				al, err := core.LookupAlgorithm(cl.kind, cl.spec)
				if err != nil {
					panic(err)
				}
				// Each cell copies the scenario config into its own run,
				// so parallel cells hold independent plans and the table
				// is identical for any Jobs value.
				lat, st, err := measure.CollectiveChecked(a, cl.kind, al.Run, count,
					measure.Options{Procs: procs, Fault: sc.cfg})
				if err != nil {
					panic(fmt.Sprintf("bench: x8 %s under %s: %v", cl.name, sc.name, err))
				}
				return cell{lat, st}
			})

			lat := Table{
				Title:   fmt.Sprintf("Latency under injected faults, %s, %d ranks, %s per rank (us)", a.Display, procs, sizeLabel(count)),
				XHeader: "collective",
				Notes: []string{
					"every cell moves real payload and verifies every byte landed per MPI",
					"semantics: faults change when bytes arrive, never which bytes",
				},
			}
			slow := Table{
				Title:   "Slowdown vs the fault-free baseline (x)",
				XHeader: "collective",
				Notes: []string{
					"the price of surviving: retries + backoff, resumed short completions,",
					"inflated lock phases, stalled cells, straggler skew, two-copy fallback",
				},
			}
			for si, sc := range scens {
				ls := Series{Name: sc.name}
				ss := Series{Name: sc.name}
				for ci := range colls {
					c := cells[ci*len(scens)+si]
					base := cells[ci*len(scens)].lat // scenario 0 = fault-free
					ls.Values = append(ls.Values, c.lat)
					ss.Values = append(ss.Values, c.lat/base)
				}
				lat.Series = append(lat.Series, ls)
				if si > 0 {
					slow.Series = append(slow.Series, ss)
				}
			}
			for _, cl := range colls {
				lat.XLabels = append(lat.XLabels, cl.name)
				slow.XLabels = append(slow.XLabels, cl.name)
			}

			// Injection / reaction accounting, summed over the collective
			// matrix per scenario: how much was thrown at the stack and
			// what the stack did to survive it.
			stats := Table{
				Title:   "Injections and degraded-mode reactions (sum over collectives)",
				XHeader: "scenario",
				Notes: []string{
					"fallbacks = (rank, peer) pairs that abandoned the kernel assist;",
					"bounce-KiB = payload finished over the degraded two-copy path",
				},
			}
			cols := []struct {
				name string
				get  func(s fault.Stats) float64
			}{
				{"eagain", func(s fault.Stats) float64 { return float64(s.Transients) }},
				{"partial", func(s fault.Stats) float64 { return float64(s.Partials) }},
				{"lockspike", func(s fault.Stats) float64 { return float64(s.LockSpikes) }},
				{"shmstall", func(s fault.Stats) float64 { return float64(s.ShmStalls) }},
				{"straggle", func(s fault.Stats) float64 { return float64(s.Stragglers) }},
				{"retries", func(s fault.Stats) float64 { return float64(s.Retries) }},
				{"backoff-us", func(s fault.Stats) float64 { return s.BackoffTime }},
				{"fallbacks", func(s fault.Stats) float64 { return float64(s.Fallbacks) }},
				{"bounce-KiB", func(s fault.Stats) float64 { return float64(s.BounceBytes) / 1024 }},
			}
			for _, c := range cols {
				stats.Series = append(stats.Series, Series{Name: c.name})
			}
			for si, sc := range scens {
				stats.XLabels = append(stats.XLabels, sc.name)
				var sum fault.Stats
				for ci := range colls {
					sum.Add(cells[ci*len(scens)+si].st)
				}
				for i, c := range cols {
					stats.Series[i].Values = append(stats.Series[i].Values, c.get(sum))
				}
			}

			return []Table{lat, slow, stats}
		},
	})
}
