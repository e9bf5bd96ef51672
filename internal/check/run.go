package check

import (
	"fmt"
	"math/rand"
	"strings"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/measure"
	"camc/internal/mpi"
	"camc/internal/trace"
)

// RunResult is everything one checked execution produced: the inputs,
// the virtual latency, the fault accounting, the full trace, and the
// closed-form prediction when one applies. Invariants consume it.
type RunResult struct {
	Spec    Spec
	Latency float64 // us; the first attempt's latency on the recovery path
	Stats   fault.Stats
	Rec     *trace.Recorder
	Procs   int
	Killed  bool    // the plan had the kill class armed
	Pred    float64 // closed-form latency; 0 = no applicable form
	Events  uint64  // simulator events processed by the run

	// Digests is the per-rank payload MemDigest, populated only when the
	// run tracked per-page digests (the sparse cross-check arms).
	Digests []uint64

	// Recovery is set when the kill path ran (see
	// measure.CollectiveRecovered); its payload verification already
	// happened inside the harness.
	Recovery *measure.RecoveryResult

	// Links, NetBeta and NetChunk are set on cluster runs (Spec.Nodes >
	// 0): the fabric's per-link accounting plus the per-byte time and
	// chunk size the link invariants need to bound utilization.
	Links    []cluster.LinkStat
	NetBeta  float64
	NetChunk int64

	// Residue is what a cluster kill run left in the fabric's flow
	// queues after the survivors drained theirs; the shrink-residue
	// invariant requires every entry to be addressed to a failed rank.
	Residue []cluster.Residue

	// Elect is the leader re-election latency of a cluster kill run.
	Elect float64
}

// RunOne executes one spec with real data movement and full tracing,
// compares every receive buffer against the reference executor, and
// evaluates the invariant registry. The returned error is non-nil for
// any differential mismatch or invariant violation (the RunResult is
// still returned for diagnostics); it is nil only for a fully green
// run. RunOne is deterministic: the same Spec produces byte-identical
// results, which is what makes shrunk reproducers trustworthy.
func RunOne(sp Spec) (*RunResult, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	prof, err := arch.ByName(sp.Arch)
	if err != nil {
		return nil, err
	}
	if sp.Nodes > 0 {
		if sp.Kills() {
			return runClusterRecovered(sp, prof, sp.faultConfig())
		}
		return runCluster(sp, prof)
	}
	fcfg := sp.faultConfig()
	if fcfg != nil && fcfg.KillProb > 0 {
		return runRecovered(sp, prof, fcfg)
	}
	return runPayload(sp, prof, fcfg, true, false)
}

// runCluster is the multi-node oracle path: the spec's collective runs
// on a simulated fabric with materialized payload, every world rank's
// receive buffer is compared against the sequential reference executor
// at world size, and the invariant registry — including the
// network-specific invariants — is evaluated over the traced run.
func runCluster(sp Spec, prof *arch.Profile) (*RunResult, error) {
	world := sp.Nodes * sp.Procs
	sendLen, recvLen, err := core.BufSizes(sp.Kind, world, sp.Count)
	if err != nil {
		return nil, err
	}
	fcfg := sp.faultConfig() // non-kill classes only (kills dispatch earlier)
	var lcfg *liveness.Config
	if sp.Deadline > 0 {
		l := liveness.Defaults()
		l.Deadline = sp.Deadline
		lcfg = &l
	}
	cl := cluster.New(cluster.Config{
		Arch: prof, NumNodes: sp.Nodes, PPN: sp.Procs,
		Topo: sp.Topo, CopyData: true, Fault: fcfg, Liveness: lcfg,
	})
	coll, err := cluster.Lookup(cl, sp.Kind, cluster.Design(sp.Design), sp.Algo)
	if err != nil {
		return nil, err
	}
	rec := trace.NewUnbound()
	cl.AttachTrace(rec)

	rng := rand.New(rand.NewSource(sp.Seed))
	send := make([]kernel.Addr, world)
	recv := make([]kernel.Addr, world)
	snap := make([][]byte, world)
	for w := 0; w < world; w++ {
		p := cl.WorldRank(w).OS
		send[w] = p.Alloc(sendLen)
		recv[w] = p.Alloc(recvLen)
		snap[w] = make([]byte, sendLen)
		rng.Read(snap[w])
		p.WriteAt(send[w], snap[w])
		p.FillAt(recv[w], recvLen, 0xEE)
	}
	var skew []float64
	if sp.Skew > 0 {
		skew = make([]float64, world)
		for i := range skew {
			skew[i] = rng.Float64() * sp.Skew
		}
	}

	res := &RunResult{Spec: sp, Rec: rec, Procs: world}
	done, err := cl.Run(func(r *cluster.Rank) {
		if skew != nil {
			r.SP.Sleep(skew[r.World])
		}
		coll.Run(r, cluster.Args{Send: send[r.World], Recv: recv[r.World], Count: sp.Count, Root: sp.Root})
	})
	if err != nil {
		return res, fmt.Errorf("check: %s: simulation failed: %v", sp, err)
	}
	res.Latency = done
	res.Events = cl.Sim.EventsProcessed()
	res.Links = cl.Fabric.LinkStats()
	res.NetBeta = cl.Fabric.Beta
	res.NetChunk = cl.Fabric.ChunkBytes
	for _, comm := range cl.Nodes {
		if plan := comm.FaultPlan(); plan != nil {
			res.Stats.Add(plan.Stats())
		}
	}
	err = core.Verify(sp.Kind, sp.Count, sp.Root, snap,
		func(w int) *kernel.Process { return cl.WorldRank(w).OS }, send, recv)
	if err != nil {
		return res, fmt.Errorf("check: %s: %v", sp, err)
	}
	err = violationsErr(res)
	if err == nil {
		cluster.Release(cl)
	}
	return res, err
}

// runClusterRecovered is the cluster kill path: the spec's plan
// permanently kills ranks mid-collective across the fabric, so the run
// goes through the world-level recovery harness (fabric-crossing
// detection, world agreement, two-tier shrink, leader re-election,
// re-run), which checks every survivor's re-run payload against
// core.Reference at the survivor world size. The invariant registry —
// including the three recovery invariants — then runs over the traced
// cycle.
func runClusterRecovered(sp Spec, prof *arch.Profile, fcfg *fault.Config) (*RunResult, error) {
	lcfg := liveness.Defaults()
	if sp.Deadline > 0 {
		lcfg.Deadline = sp.Deadline
	}
	cres, rec, err := measure.ClusterRecoveredTraced(prof, sp.Kind, cluster.Design(sp.Design), sp.Algo, sp.Count,
		measure.ClusterOptions{Nodes: sp.Nodes, PPN: sp.Procs, Topo: sp.Topo, Root: sp.Root,
			Fault: fcfg, Liveness: &lcfg, SkewSeed: sp.Seed, MaxSkew: sp.Skew, CopyData: true})
	res := &RunResult{Spec: sp, Rec: rec, Procs: sp.Nodes * sp.Procs, Killed: true,
		Links: cres.Links, NetBeta: cres.NetBeta, NetChunk: cres.NetChunk,
		Residue: cres.Residue, Elect: cres.ElectLatency, Events: cres.Events}
	res.Recovery = &cres.RecoveryResult
	res.Stats = cres.Stats
	if err != nil {
		return res, fmt.Errorf("check: %s: cluster recovery harness: %v", sp, err)
	}
	res.Latency = cres.FirstLatency
	return res, violationsErr(res)
}

// runPayload is one arm of a payload-carrying execution through
// measure's single-node timed window. materialize selects real bytes
// (CopyData) and with them the byte-level oracle comparison against
// core.Reference; track selects per-page digest folding
// (mpi.Config.Sparse). The two knobs are independent: (true, false) is
// the classic differential path, (true, true) and (false, true) are the
// two arms SparseCrossCheck compares. Both arms seed through the
// kernel's payload layer from an identical rng stream — the payload
// bytes first, then the skew draws — so they fold identical content
// digests.
func runPayload(sp Spec, prof *arch.Profile, fcfg *fault.Config, materialize, track bool) (*RunResult, error) {
	algo, err := core.LookupAlgorithm(sp.Kind, sp.Algo)
	if err != nil {
		return nil, err
	}
	p := sp.Procs
	sendLen, _, err := core.BufSizes(sp.Kind, p, sp.Count)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	sends := make([][]byte, p)
	for r := range sends {
		sends[r] = make([]byte, sendLen)
		rng.Read(sends[r])
	}
	var skew []float64
	if sp.Skew > 0 {
		skew = make([]float64, p)
		for i := range skew {
			skew[i] = rng.Float64() * sp.Skew
		}
	}

	rec := trace.NewUnbound()
	t, err := measure.Window{Kind: sp.Kind, Algo: algo.Run, Count: sp.Count, Root: sp.Root,
		Sends: sends, Skew: skew, Rec: rec}.Run(
		mpi.Config{Arch: prof, Procs: p, CopyData: materialize, Sparse: track, Ambient: sp.Ambient, Fault: fcfg})
	res := &RunResult{Spec: sp, Rec: rec, Procs: p, Latency: t.Latency, Stats: t.Stats,
		Events: t.Events, Digests: t.Digests}
	if err != nil {
		return res, fmt.Errorf("check: %s: %v", sp, err)
	}

	// The closed forms model a dedicated machine; ambient pressure bends
	// γ(c) away from them, so no prediction is attached on ambient specs.
	if fcfg == nil && sp.Skew == 0 && sp.Ambient == 0 {
		if pred, ok := predictFor(prof, p, sp.Kind, sp.Algo, sp.Count); ok {
			res.Pred = pred
		}
	}
	return res, violationsErr(res)
}

// runRecovered is the kill path: the spec's plan permanently kills
// ranks mid-operation, so the run goes through the full recovery
// harness (detect, agree, shrink, replan, verified re-run — the payload
// check happens inside measure.CollectiveRecoveredTraced against a
// fresh pattern on the survivor communicator). The trace and fault
// invariants then run over the whole recovery cycle.
func runRecovered(sp Spec, prof *arch.Profile, fcfg *fault.Config) (*RunResult, error) {
	lcfg := liveness.Defaults()
	if sp.Deadline > 0 {
		lcfg.Deadline = sp.Deadline
	}
	rres, rec, err := measure.CollectiveRecoveredTraced(prof, sp.Kind, sp.Algo, sp.Count,
		measure.Options{Procs: sp.Procs, Root: sp.Root, Ambient: sp.Ambient, Fault: fcfg, Liveness: &lcfg,
			SkewSeed: sp.Seed, MaxSkew: sp.Skew})
	res := &RunResult{Spec: sp, Rec: rec, Procs: sp.Procs, Killed: true}
	if err != nil {
		return res, fmt.Errorf("check: %s: recovery harness: %v", sp, err)
	}
	res.Latency = rres.FirstLatency
	res.Stats = rres.Stats
	res.Recovery = &rres
	return res, violationsErr(res)
}

// violationsErr folds the invariant registry's findings into one error.
func violationsErr(res *RunResult) error {
	vs := CheckInvariants(res)
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.Error()
	}
	return fmt.Errorf("check: %s: %d invariant violation(s): %s", res.Spec, len(vs), strings.Join(msgs, "; "))
}
