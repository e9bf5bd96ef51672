package bench

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
)

// x11: the hierarchical-collective node sweep over the contention-aware
// network fabric. Where fig17 reproduces the paper's 2-8 node gather,
// this extension pushes the same question through the switched-fabric
// model — per-link alpha/beta plus the switch-contention term
// GammaNet(c), the network analogue of the mm-lock gamma(c) — for all
// six collective kinds and all three cluster designs: flat
// (world-spanning algorithm, O(world) network flows), leader (two-level
// with the contention-aware intra-node phase, O(nodes) flows), and
// shared (MPI+MPI-style leader buffers). The ladders hold the per-rank
// block size fixed while nodes grow 64 -> 4096, which is where the
// flat designs' incast meets the super-linear GammaNet and the
// two-level gap opens the way Fig 17 promises.

// hierLadder is one collective's node ladder.
type hierLadder struct {
	kind  core.Kind
	ppn   int
	count int64 // bytes per rank block, fixed across the ladder
	nodes []int
	quick []int
	note  string
}

// hierLadders returns the x11 matrix. The all-to-all-shaped kinds run
// at a lower PPN and smaller blocks: their per-rank volume grows with
// the world size, so the 4096-node cells stay tractable without losing
// the design comparison.
func hierLadders() []hierLadder {
	full := []int{64, 256, 1024, 4096}
	quick := []int{64, 256}
	return []hierLadder{
		{core.KindBcast, 8, 16 << 10, full, quick,
			"one root block fans out; leader turns O(world) down-link flows into O(nodes)"},
		{core.KindGather, 8, 4 << 10, full, quick,
			"flat gather is the fabric's worst incast: every rank targets the root's down-link"},
		{core.KindScatter, 8, 4 << 10, full, quick,
			"the root-to-all direction of the same story"},
		{core.KindReduce, 8, 16 << 10, full, quick,
			"node-major flat binomial is already implicitly hierarchical; the designs stay close"},
		{core.KindAllgather, 4, 256, full, quick,
			"per-rank volume is O(world): smaller blocks and PPN keep 4096 nodes tractable"},
		{core.KindAlltoall, 4, 16, full, quick,
			"O(world) per-rank volume again; bundle-bruck among leaders vs world-wide bruck"},
	}
}

// hierCell measures one (arch, kind, design, nodes) point: a dataless
// cluster run with the tuned intra-node algorithm, released back to the
// fabric pool afterwards.
func hierCell(a *arch.Profile, kind core.Kind, design cluster.Design, nodes, ppn int, count int64) float64 {
	cl := cluster.New(cluster.Config{Arch: a, NumNodes: nodes, PPN: ppn})
	coll, err := cluster.Lookup(cl, kind, design, "")
	if err != nil {
		panic(err)
	}
	sendLen, recvLen, err := core.BufSizes(kind, cl.WorldSize(), count)
	if err != nil {
		panic(err)
	}
	done, err := cl.Run(func(r *cluster.Rank) {
		send := r.Alloc(sendLen)
		recv := r.Alloc(recvLen)
		coll.Run(r, cluster.Args{Send: send, Recv: recv, Count: count})
	})
	if err != nil {
		panic(err)
	}
	cluster.Release(cl)
	return done
}

func init() {
	register(&Experiment{
		ID:    "x11",
		Title: "[extension] Two-level collectives on the contention-aware fabric: 64-4096 nodes",
		Tables: func(o Options) []Table {
			archs := o.archs(arch.All()...)
			lads := hierLadders()
			designs := cluster.Designs()
			type cellKey struct{ ai, li, ni, di int }
			var cells []cellKey
			for ai := range archs {
				for li, l := range lads {
					nodes := l.nodes
					if o.Quick {
						nodes = l.quick
					}
					for ni := range nodes {
						for di := range designs {
							cells = append(cells, cellKey{ai, li, ni, di})
						}
					}
				}
			}
			vals := parMap(o, len(cells), func(i int) float64 {
				c := cells[i]
				a, l := archs[c.ai], lads[c.li]
				nodes := l.nodes
				if o.Quick {
					nodes = l.quick
				}
				return hierCell(a, l.kind, designs[c.di], nodes[c.ni], l.ppn, l.count)
			})
			byKey := make(map[cellKey]float64, len(cells))
			for i, c := range cells {
				byKey[c] = vals[i]
			}
			var out []Table
			for ai, a := range archs {
				for li, l := range lads {
					nodes := l.nodes
					if o.Quick {
						nodes = l.quick
					}
					t := Table{
						Title:   fmt.Sprintf("Fabric ladder: %s designs vs nodes (ppn %d), %s", l.kind, l.ppn, a.Display),
						XHeader: "nodes",
						Notes: []string{
							fmt.Sprintf("%d bytes per rank block; fat-tree fabric with GammaNet switch contention; dataless run", l.count),
							l.note,
						},
					}
					for di, d := range designs {
						s := Series{Name: string(d)}
						for ni := range nodes {
							s.Values = append(s.Values, byKey[cellKey{ai, li, ni, di}])
						}
						t.Series = append(t.Series, s)
					}
					for _, n := range nodes {
						t.XLabels = append(t.XLabels, fmt.Sprintf("%d", n))
					}
					out = append(out, t)
				}
			}
			return out
		},
	})
}
