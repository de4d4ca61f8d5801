package main

import (
	"fmt"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/dedup"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/graph"
	"dedupsim/internal/partition"
	"dedupsim/internal/perfmodel"
	"dedupsim/internal/sched"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// built is one design taken from FIRRTL text to an engine ready to step,
// along the dedupsim path of the Dedup variant.
type built struct {
	c    *circuit.Circuit
	g    *graph.Graph
	dr   *dedup.Result
	s    *sched.Schedule
	prog *codegen.Program
	e    *sim.Engine
	took map[string]time.Duration // per pipeline call
}

// timed runs fn inside a span and records its duration under name.
func (b *built) timed(tr *tracer, name string, parent int, fn func()) {
	id := tr.begin(name, parent, "")
	t0 := time.Now()
	fn()
	b.took[name] += time.Since(t0)
	tr.end(id)
}

// buildDedup parses, elaborates, deduplicates, schedules and compiles
// the FIRRTL text, then builds an activity-skipping engine.
func buildDedup(tr *tracer, parent int, text string) (*built, error) {
	b := &built{took: map[string]time.Duration{}}
	var ast *firrtl.Circuit
	var err error
	b.timed(tr, "firrtl.Parse", parent, func() { ast, err = firrtl.Parse(text) })
	if err != nil {
		return nil, err
	}
	b.timed(tr, "firrtl.Elaborate", parent, func() { b.c, err = firrtl.Elaborate(ast) })
	if err != nil {
		return nil, err
	}
	b.timed(tr, "circuit.SchedGraph", parent, func() { b.g = b.c.SchedGraph() })
	b.timed(tr, "dedup.Deduplicate", parent, func() { b.dr, err = dedup.Deduplicate(b.c, b.g, dedup.Options{}) })
	if err != nil {
		return nil, err
	}
	var q *graph.Graph
	b.timed(tr, "partition.Quotient", parent, func() { q = b.dr.Part.Quotient(b.g) })
	b.timed(tr, "sched.LocalityAware", parent, func() { b.s, err = sched.LocalityAware(q, b.dr.Class) })
	if err != nil {
		return nil, err
	}
	b.timed(tr, "codegen.Compile", parent, func() { b.prog, err = codegen.Compile(b.c, b.dr, b.s, codegen.Options{}) })
	if err != nil {
		return nil, err
	}
	b.timed(tr, "sim.New", parent, func() { b.e = sim.New(b.prog, true) })
	return b, nil
}

// buildESSENT compiles the same circuit as the ESSENT baseline: acyclic
// partitioning without code sharing and the baseline schedule.
func (b *built) buildESSENT(tr *tracer, parent int) (*codegen.Program, error) {
	var res *partition.Result
	var err error
	b.timed(tr, "partition.Partition", parent, func() { res, err = partition.Partition(b.g, partition.Options{}) })
	if err != nil {
		return nil, err
	}
	dr := dedup.BaselineResult(res)
	var s *sched.Schedule
	b.timed(tr, "sched.Baseline", parent, func() { s, err = sched.Baseline(dr.Part.Quotient(b.g)) })
	if err != nil {
		return nil, err
	}
	var prog *codegen.Program
	b.timed(tr, "codegen.Compile", parent, func() { prog, err = codegen.Compile(b.c, dr, s, codegen.Options{}) })
	return prog, err
}

// outputs reads every top-level output of c through read, in c.Outputs() order.
func outputs(c *circuit.Circuit, read func(string) (uint64, error)) []uint64 {
	outs := c.Outputs()
	vals := make([]uint64, len(outs))
	for i, o := range outs {
		vals[i], _ = read(c.Names[o])
	}
	return vals
}

// probeCycles is how many cycles the layer probe steps each engine.
const probeCycles = 2000

// probeLayers pushes one design through every compile and simulation
// layer with a span per call and returns the per-layer metrics, split
// into times and exact counts (which must repeat for the same seed).
// Only traced runs call it.
func probeLayers(tr *tracer, text string, scale float64, wl stimulus.Workload) (times, counts map[string]float64, err error) {
	root := tr.begin("probe.layers", -1, "")
	defer tr.end(root)
	b, err := buildDedup(tr, root, text)
	if err != nil {
		return nil, nil, err
	}
	dedupCompile := b.took["codegen.Compile"] // before the ESSENT compile adds to it
	st := b.dr.Stats
	counts = map[string]float64{
		"circuit.nodes":             float64(b.c.NumNodes()),
		"codegen.kernels":           float64(len(b.prog.Kernels)),
		"codegen.unique_code_bytes": float64(b.prog.UniqueCodeBytes),
		"codegen.fused_frac":        b.prog.Fusion.Frac(),
		"sched.reuse_mean_distance": sched.Reuse(b.s, b.dr.Class).MeanDistance,
	}
	if st.IdealReduction > 0 {
		counts["dedup.kept_frac"] = st.RealReduction / st.IdealReduction
	}

	// Step the Dedup engine with a span around every drive and Step.
	stepRoot := tr.begin("probe.step", root, "")
	drive := wl.NewEngineDrive(b.e)
	var stepNs, driveNs time.Duration
	for cyc := 0; cyc < probeCycles; cyc++ {
		id := tr.begin("stimulus.drive", stepRoot, "")
		t0 := time.Now()
		drive(cyc)
		t1 := time.Now()
		tr.end(id)
		id = tr.begin("sim.Engine.Step", stepRoot, "")
		t2 := time.Now()
		b.e.Step()
		t3 := time.Now()
		tr.end(id)
		driveNs += t1.Sub(t0)
		stepNs += t3.Sub(t2)
	}
	tr.end(stepRoot)
	e := b.e
	counts["sim.activity_ratio"] = float64(e.ActsExecuted) / float64(e.ActsExecuted+e.ActsSkipped)
	counts["sim.dyn_instrs_per_cycle"] = float64(e.DynInstrs) / float64(e.Cycles)

	// The same design, cycles and stimulus on the ESSENT program.
	essent, err := b.buildESSENT(tr, root)
	if err != nil {
		return nil, nil, err
	}
	ratio, err := versus(b.c, b.prog, essent, wl)
	if err != nil {
		return nil, nil, err
	}

	var ptr *perfmodel.Trace
	b.timed(tr, "perfmodel.Record", root, func() {
		d := wl.NewDrive()
		ptr = perfmodel.Record(b.prog, true, 200, func(e *sim.Engine, cyc int) { d(e, cyc) })
	})
	var ctr perfmodel.Counters
	b.timed(tr, "perfmodel.RunSingle", root, func() {
		ctr = perfmodel.RunSingle(ptr, perfmodel.Server().ScaleCaches(int(20/scale)), 0)
	})
	counts["perfmodel.ipc"] = ctr.IPC
	counts["perfmodel.modeled_sim_hz"] = ctr.SimHz

	dt := b.dr.Timing
	times = map[string]float64{
		"firrtl.parse_ms":             ms(b.took["firrtl.Parse"]),
		"firrtl.elaborate_ms":         ms(b.took["firrtl.Elaborate"]),
		"circuit.schedgraph_ms":       ms(b.took["circuit.SchedGraph"]),
		"dedup.deduplicate_ms":        ms(b.took["dedup.Deduplicate"]),
		"dedup.partition_instance_ms": ms(dt.PartitionInstance),
		"dedup.dissolve_ms":           ms(dt.Dissolve),
		"dedup.stamp_ms":              ms(dt.Stamp),
		"dedup.remainder_ms":          ms(dt.Remainder),
		"partition.baseline_ms":       ms(b.took["partition.Partition"]),
		"sched.locality_ms":           ms(b.took["sched.LocalityAware"]),
		"codegen.compile_ms":          ms(dedupCompile),
		"sim.step_ns":                 float64(stepNs) / probeCycles,
		"stimulus.drive_ns":           float64(driveNs) / probeCycles,
		"sim.dedup_vs_essent":         ratio,
	}
	return times, counts, nil
}

// versus steps fresh Dedup and ESSENT engines over the same cycles and
// stimulus, alternating chunks so both see the same host conditions,
// and returns ESSENT's time over Dedup's (above 1: Dedup is faster).
// The first chunk of each warms up and is not timed. Both engines must
// end with the same outputs.
func versus(c *circuit.Circuit, dedupProg, essentProg *codegen.Program, wl stimulus.Workload) (float64, error) {
	const chunks = 5
	engines := []*sim.Engine{sim.New(dedupProg, true), sim.New(essentProg, true)}
	drives := []func(int){wl.NewEngineDrive(engines[0]), wl.NewEngineDrive(engines[1])}
	var took [2]time.Duration
	per := probeCycles / chunks
	for k := 0; k < chunks; k++ {
		for i, e := range engines {
			t0 := time.Now()
			for cyc := k * per; cyc < (k+1)*per; cyc++ {
				drives[i](cyc)
				e.Step()
			}
			if k > 0 {
				took[i] += time.Since(t0)
			}
		}
	}
	a, b := outputs(c, engines[0].Output), outputs(c, engines[1].Output)
	for i := range a {
		if a[i] != b[i] {
			return 0, fmt.Errorf("%s: Dedup and ESSENT outputs differ after %d cycles", c.Name, probeCycles)
		}
	}
	return float64(took[1]) / float64(took[0]), nil
}

// addAll accumulates per-design layer metrics into a workload total.
func addAll(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}
