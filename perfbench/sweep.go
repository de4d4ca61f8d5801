package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dedupsim/internal/farm"
	"dedupsim/internal/gen"
	"dedupsim/internal/stimulus"
)

// sweep-lanes: a closed regression sweep of sweepJobs SmallBoom-4C@0.3
// jobs with distinct seeds on stimulus B, all submitted at once through
// the Go API to one in-memory farm with lane coalescing on. A run
// repeats the sweep (same seeds) until its time is up.
const (
	sweepDesign  = "SmallBoom-4C"
	sweepScale   = 0.3
	sweepJobs    = 32
	sweepCycles  = 5000
	sweepWorkers = 2
	sweepLanes   = 16
	// sweepCkpt is dedupfarmd's default checkpoint cadence.
	sweepCkpt = 4096
	// sweepRetain keeps the last two sweeps' jobs queryable, so memory
	// does not grow with the number of sweeps a run fits in.
	sweepRetain = 2 * sweepJobs
	sweepLimit  = 5 * time.Second
	// fleetPassSeconds is the length of the fleet-zoo replay a traced
	// sweep-lanes run adds for the fleet layers.
	fleetPassSeconds = 5
)

func sweepSpec(seed uint64, cycles int) farm.JobSpec {
	return farm.JobSpec{
		DesignSpec: farm.DesignSpec{Design: sweepDesign, Scale: sweepScale},
		Variant:    "Dedup", Workload: "B", Seed: seed, Cycles: cycles,
	}
}

// openSweepFarm opens a farm and runs one one-cycle job through it, so
// the design is compiled and cached: the set-up a sweep needs.
func openSweepFarm() (*farm.Farm, error) {
	f, err := farm.Open(farm.Config{
		Workers: sweepWorkers, MaxLanes: sweepLanes, CheckpointEvery: sweepCkpt, RetainJobs: sweepRetain,
	})
	if err != nil {
		return nil, err
	}
	j, err := f.Submit(sweepSpec(1, 1))
	if err == nil {
		var v farm.JobView
		v, err = f.WaitJob(context.Background(), j.View().ID)
		if err == nil && v.Status != farm.StatusDone {
			err = fmt.Errorf("warm-up job %s: %s %s", v.ID, v.Status, v.Error)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// sweepInputs returns the sweep's design and the job seeds of a run seed.
func sweepInputs(seed uint64) (gen.SoCParams, []uint64, error) {
	fam, cores, err := gen.ParseDesign(sweepDesign)
	if err != nil {
		return gen.SoCParams{}, nil, err
	}
	seeds := make([]uint64, sweepJobs)
	for i := range seeds {
		seeds[i] = mix(seed, uint64(100+i))
	}
	return gen.Config(fam, cores, sweepScale), seeds, nil
}

// probeSweep is sweep-lanes' layer probe: its design, with the stimulus
// of the sweep's first job.
func probeSweep(tr *tracer, seed uint64) (times, counts map[string]float64, err error) {
	params, seeds, err := sweepInputs(seed)
	if err != nil {
		return nil, nil, err
	}
	return probeLayers(tr, gen.GenerateFIRRTL(params), sweepScale, stimulus.VVAddB().WithSeed(seeds[0]))
}

func runSweep(o opts) (*outcome, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	params, seeds, err := sweepInputs(o.seed)
	if err != nil {
		return nil, err
	}

	resetPeakRSS()
	// The sweeps run on the first farm. Before every untraced sweep after
	// it, a fresh farm is opened, timed and closed, so setup_s samples the
	// host over the whole run, as the sweeps do.
	var setups []float64
	setup := func() (*farm.Farm, error) {
		runtime.GC()
		t0 := time.Now()
		f, err := openSweepFarm()
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
		}
		return f, err
	}
	f, err := setup()
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := &outcome{metrics: map[string]float64{}}
	var hzTraced, firsts, latMs []float64
	var swept int64             // cycles of the untraced sweeps
	var sweepTime time.Duration // their first submit → last finish, summed
	var views []farm.JobView
	var elapsed time.Duration
	within := 0
	for round := 0; elapsed.Seconds() < o.seconds || (tr != nil && round < 2); round++ {
		rtr := tr
		if round%2 == 0 {
			rtr = nil // a traced run alternates untraced and traced sweeps
		}
		if tr == nil && round > 0 {
			extra, err := setup()
			if err != nil {
				return nil, err
			}
			extra.Close()
		}
		root := rtr.begin("sweep.round", -1, "")
		t0 := time.Now()
		jobs := make([]*farm.Job, len(seeds))
		submitted := make([]time.Time, len(seeds))
		for i, s := range seeds {
			id := rtr.begin("farm.Submit", root, "")
			submitted[i] = time.Now()
			jobs[i], err = f.Submit(sweepSpec(s, sweepCycles))
			rtr.end(id)
			if err != nil {
				return nil, err
			}
		}
		var first, last time.Time
		var cycles int64
		for i, j := range jobs {
			<-j.Done()
			v := j.View()
			views = append(views, v)
			out.attempted++
			if v.Status != farm.StatusDone || v.Stats == nil || v.Stats.Cycles != sweepCycles {
				out.failed++
				fmt.Printf("FAILED %s: %s %s\n", v.ID, v.Status, v.Error)
				continue
			}
			cycles += v.Stats.Cycles
			if first.IsZero() || v.FinishedAt.Before(first) {
				first = v.FinishedAt
			}
			if v.FinishedAt.After(last) {
				last = v.FinishedAt
			}
			lat := v.FinishedAt.Sub(submitted[i])
			latMs = append(latMs, ms(lat))
			if lat <= sweepLimit {
				within++
			}
			jid := rtr.add("farm.job", submitted[i], v.FinishedAt, root, v.ID)
			rtr.add("farm.queue", v.CreatedAt, v.StartedAt, jid, v.ID)
			rtr.add("farm.run", v.StartedAt, v.FinishedAt, jid, v.ID)
		}
		elapsed += time.Since(t0)
		rtr.end(root)
		if last.IsZero() {
			continue
		}
		if rtr != nil {
			hzTraced = append(hzTraced, float64(cycles)/last.Sub(t0).Seconds())
		} else {
			swept += cycles
			sweepTime += last.Sub(t0)
			firsts = append(firsts, ms(first.Sub(t0)))
		}
	}

	// Peak memory covers set-up and the sweeps, not the checks.
	out.metrics["peak_rss_mb"] = peakRSSMB()

	// Correctness: every job's final outputs against the reference.
	c, err := gen.Build(params)
	if err != nil {
		return nil, err
	}
	hash := c.StructuralHash().String()
	var cases []refCase
	for _, v := range views {
		if v.Stats == nil {
			continue
		}
		cases = append(cases, refCase{
			key: refKey{hash: hash, workload: "B", seed: v.Spec.Seed, cycles: int(v.Stats.Cycles)},
			c:   c, wl: stimulus.VVAddB().WithSeed(v.Spec.Seed), want: v.Stats.Outputs, job: v.ID,
		})
	}
	bad, err := newRefGate().check(cases, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	out.failed += len(bad)
	if len(bad) > 0 {
		out.wrong = true
	}
	fmt.Printf("%d sweeps of %d jobs x %d cycles; %d jobs matched the reference\n",
		len(firsts)+len(hzTraced), sweepJobs, sweepCycles, len(cases)-len(bad))

	// Per sweep, both numbers are bimodal: a worker that wakes while the
	// sweep is still being submitted takes a narrow batch, which finishes
	// first and leaves a second batch to run alone. A median flips between
	// the two modes from run to run; totals and means weigh them by how
	// often they occur.
	hz := float64(swept) / sweepTime.Seconds()
	if tr == nil {
		out.metrics["sim_hz"] = hz
		out.metrics["setup_s"] = median(setups)
		out.metrics["first_result_ms"] = mean(firsts)
		out.metrics["job_p50_ms"] = quantile(latMs, 0.5)
		out.metrics["job_p95_ms"] = quantile(latMs, 0.95)
		out.metrics["goodput_jobs_s"] = float64(within) / elapsed.Seconds()
		return out, nil
	}

	times, counts, err := probeSweep(tr, o.seed)
	if err != nil {
		return nil, err
	}
	out.metrics, out.counts = times, counts
	addAll(out.metrics, counts)
	addAll(out.metrics, farmMetrics(views, f.Stats()))
	spans := tr.snapshot()
	var submit []float64
	for _, d := range durs(spans, "farm.Submit") {
		submit = append(submit, float64(d)/1e3)
	}
	out.metrics["farm.submit_us"] = mean(submit)
	out.metrics["trace.overhead_pct"] = 100 * (hz - mean(hzTraced)) / hz
	fmt.Printf("tracing overhead: sim_hz %.0f untraced vs %.0f traced (%d and %d sweeps)\n",
		hz, mean(hzTraced), len(firsts), len(hzTraced))

	// The cluster, tenant and load-generator layers sit behind a fleet,
	// which this workload bypasses: replay a short fleet-zoo arrival trace
	// on the same tracer to measure them (see README.md).
	fo := o
	fo.seconds = fleetPassSeconds
	fout, err := fleetWorkload(fo, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range fout.metrics {
		if l := layerOf(k); l == "cluster" || l == "tenant" || l == "loadgen" {
			out.metrics[k] = v
		}
	}
	out.attempted += fout.attempted
	out.failed += fout.failed
	out.wrong = out.wrong || fout.wrong
	out.spans = tr.snapshot()
	out.metrics["trace.spans"] = float64(len(out.spans))
	return out, nil
}

// farmMetrics derives the farm layer's metrics from finished job views
// and the farm's own counters.
func farmMetrics(views []farm.JobView, st farm.Stats) map[string]float64 {
	var wait, run, lanes []float64
	for _, v := range views {
		if v.Status != farm.StatusDone || v.Stats == nil {
			continue
		}
		wait = append(wait, ms(v.StartedAt.Sub(v.CreatedAt)))
		run = append(run, ms(v.FinishedAt.Sub(v.StartedAt)))
		lanes = append(lanes, float64(max(v.Stats.Lanes, 1)))
	}
	m := map[string]float64{
		"farm.queue_wait_p50_ms": quantile(wait, 0.5),
		"farm.queue_wait_p95_ms": quantile(wait, 0.95),
		"farm.run_ms":            mean(run),
		"farm.lanes_mean":        mean(lanes),
		"farm.checkpoints":       float64(st.CheckpointsTaken) / float64(max(len(views), 1)),
		"farm.retries":           float64(st.JobsRetried),
	}
	if st.Cache.Misses > 0 {
		m["farm.compile_ms"] = st.CompileMsSpent / float64(st.Cache.Misses)
	}
	if n := st.Cache.Hits + st.Cache.Misses; n > 0 {
		m["farm.cache_hit_ratio"] = float64(st.Cache.Hits) / float64(n)
	}
	return m
}
