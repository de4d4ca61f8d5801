package main

import (
	"fmt"
	"runtime"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/gen"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// solo-large: one scalar Dedup simulation of LargeBoom-6C at scale 1.0
// on stimulus B, from FIRRTL text to Engine.Step.
const (
	soloCores = 6
	soloScale = 1.0
	// soloLife is how many timed chunks the engine steps before a fresh
	// build from the FIRRTL text replaces it. Rebuilding samples engine
	// speed over many memory layouts and set-up time over the whole run,
	// and keeps the reference check short: every engine starts at cycle
	// 0, so the reference steps soloLife+1 chunks, not the whole run.
	soloLife = 8
	// soloChunk is the cycles per timed chunk, the unit of job_p50_ms.
	soloChunk = 1000
	// soloFirst is the cycles of the first result: set-up plus the first
	// soloFirst cycles of a fresh engine. Kept short because the rest of
	// the first chunk, still faulting in the engine's state, is the part
	// whose time varies most between runs.
	soloFirst = 100
	// soloLimit is the chunk latency limit goodput counts against.
	soloLimit = 500 * time.Millisecond
)

// soloInputs returns the FIRRTL text and the stimulus of a seed.
func soloInputs(seed uint64) (string, stimulus.Workload) {
	return gen.GenerateFIRRTL(gen.Config(gen.LargeBoom, soloCores, soloScale)), stimulus.VVAddB().WithSeed(mix(seed, 1))
}

// probeSolo is solo-large's layer probe: its one design and stimulus.
func probeSolo(tr *tracer, seed uint64) (times, counts map[string]float64, err error) {
	text, wl := soloInputs(seed)
	return probeLayers(tr, text, soloScale, wl)
}

// soloRun is what the checks need of an engine, kept after the engine
// is dropped: its outputs at the end of every chunk and its activity
// counters.
type soloRun struct {
	bounds [][]uint64
	counts [4]int64 // cycles, activations executed and skipped, dynamic instructions
}

// soloEngine is the built engine and how many timed chunks it has left.
type soloEngine struct {
	soloRun
	b     *built
	drive func(int)
	life  int
}

// run returns the engine's record with its current counters.
func (s *soloEngine) run() soloRun {
	e := s.b.e
	s.counts = [4]int64{e.Cycles, e.ActsExecuted, e.ActsSkipped, e.DynInstrs}
	return s.soloRun
}

// step runs n untraced cycles and returns how long they took.
func (s *soloEngine) step(n int) time.Duration {
	e, drive := s.b.e, s.drive
	start := int(e.Cycles)
	t0 := time.Now()
	for cyc := start; cyc < start+n; cyc++ {
		drive(cyc)
		e.Step()
	}
	return time.Since(t0)
}

// buildEngine takes the FIRRTL text to a fresh engine and steps its
// first chunk, untimed but for the first soloFirst cycles. It returns
// the engine with the set-up time and the time to that first result.
func buildEngine(tr *tracer, text string, wl stimulus.Workload) (s *soloEngine, setup, first time.Duration, err error) {
	runtime.GC()
	id := tr.begin("solo.setup", -1, "")
	t0 := time.Now()
	b, err := buildDedup(tr, id, text)
	setup = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	s = &soloEngine{b: b, drive: wl.NewEngineDrive(b.e), life: soloLife}
	first = setup + s.step(soloFirst)
	s.step(soloChunk - soloFirst)
	s.bounds = append(s.bounds, outputs(b.c, b.e.Output))
	runtime.GC() // the build's garbage, before the timed chunks
	return s, setup, first, nil
}

// chunk steps soloChunk cycles, with a span per drive and Step when tr
// is set, and records the outputs afterwards (outside the timing).
func (s *soloEngine) chunk(tr *tracer) time.Duration {
	e, drive := s.b.e, s.drive
	start := int(e.Cycles)
	var took time.Duration
	if tr == nil {
		took = s.step(soloChunk)
	} else {
		root := tr.begin("solo.chunk", -1, "")
		t0 := time.Now()
		for cyc := start; cyc < start+soloChunk; cyc++ {
			id := tr.begin("stimulus.drive", root, "")
			drive(cyc)
			tr.end(id)
			id = tr.begin("sim.Engine.Step", root, "")
			e.Step()
			tr.end(id)
		}
		took = time.Since(t0)
		tr.end(root)
	}
	s.bounds = append(s.bounds, outputs(s.b.c, e.Output))
	s.life--
	return took
}

func runSolo(o opts) (*outcome, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	text, wl := soloInputs(o.seed)

	resetPeakRSS()
	var setups, firsts []float64
	var runs []soloRun // of the replaced engines
	var eng *soloEngine
	var c *circuit.Circuit
	// Timed chunks until the time is up. A traced run alternates
	// untraced and traced chunks; their difference is the tracing
	// overhead.
	var hz, hzTraced, chunkMs []float64
	var timed time.Duration
	within := 0
	for i := 0; timed.Seconds() < o.seconds || len(hzTraced) < soloLife/2 && tr != nil; i++ {
		if eng == nil || eng.life == 0 {
			if eng != nil {
				runs = append(runs, eng.run())
				eng = nil // not resident while the next one builds
			}
			var setup, first time.Duration
			var err error
			if eng, setup, first, err = buildEngine(tr, text, wl); err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
			firsts = append(firsts, ms(first))
			if c == nil {
				c = eng.b.c
				fmt.Printf("design %s: %d nodes, %d kernels, %d B unique code; a fresh build every %d chunks\n",
					c.Name, c.NumNodes(), len(eng.b.prog.Kernels), eng.b.prog.UniqueCodeBytes, soloLife)
			}
		}
		if tr != nil && i%2 == 1 {
			d := eng.chunk(tr)
			hzTraced = append(hzTraced, soloChunk/d.Seconds())
			timed += d
			continue
		}
		d := eng.chunk(nil)
		hz = append(hz, soloChunk/d.Seconds())
		chunkMs = append(chunkMs, ms(d))
		if d <= soloLimit {
			within++
		}
		timed += d
	}
	runs = append(runs, eng.run())

	// Peak memory covers set-up and the timed chunks, not the checks.
	out := &outcome{metrics: map[string]float64{"peak_rss_mb": peakRSSMB()}}
	// Every engine ran the same stimulus from cycle 0 off a separate
	// build, so engines at the same cycle must agree exactly on their
	// activity counters.
	seen := map[int64][4]int64{}
	for _, r := range runs {
		prev, ok := seen[r.counts[0]]
		if !ok {
			seen[r.counts[0]] = r.counts
		} else if prev != r.counts {
			fmt.Printf("DRIFT: two builds of one design disagree on (cycles, executed, skipped, instructions): %v vs %v\n",
				r.counts, prev)
			out.wrong = true
		}
	}

	// Correctness: replay the stimulus on the reference interpreter and
	// compare every engine's outputs at every chunk boundary.
	checks, bad, err := checkSolo(c, runs, wl)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = checks, bad
	fmt.Printf("%d engines built; reference matched at %d of %d chunk boundaries\n", len(runs), checks-bad, checks)
	fmt.Printf("set-up over %d builds: quartiles %.4f %.4f %.4f s, fastest %.4f s\n", len(setups),
		quantile(setups, 0.25), median(setups), quantile(setups, 0.75), quantile(setups, 0))

	if tr == nil {
		var stepSecs float64
		for _, m := range chunkMs {
			stepSecs += m / 1e3
		}
		out.metrics["sim_hz"] = median(hz)
		out.metrics["setup_s"] = median(setups)
		out.metrics["first_result_ms"] = median(firsts)
		out.metrics["job_p50_ms"] = quantile(chunkMs, 0.5)
		out.metrics["job_p95_ms"] = quantile(chunkMs, 0.95)
		out.metrics["goodput_jobs_s"] = float64(within) / stepSecs
		fmt.Printf("%d timed chunks of %d cycles (limit %v), sim_hz quartiles %.0f..%.0f\n",
			len(chunkMs), soloChunk, soloLimit, quantile(hz, 0.25), quantile(hz, 0.75))
		return out, nil
	}

	// Per-cycle step and drive times come from the traced chunks of the
	// warmed engines that sim_hz measures, not from the probe's fresh one.
	chunkSpans := tr.snapshot()
	times, counts, err := probeSolo(tr, o.seed)
	if err != nil {
		return nil, err
	}
	times["sim.step_ns"] = meanNs(durs(chunkSpans, "sim.Engine.Step"))
	times["stimulus.drive_ns"] = meanNs(durs(chunkSpans, "stimulus.drive"))
	out.metrics, out.counts = times, counts
	addAll(out.metrics, counts)
	out.metrics["trace.overhead_pct"] = 100 * (median(hz) - median(hzTraced)) / median(hz)
	out.spans = tr.snapshot()
	out.metrics["trace.spans"] = float64(len(out.spans))
	fmt.Printf("tracing overhead: sim_hz %.0f untraced vs %.0f traced (median of %d and %d chunks)\n",
		median(hz), median(hzTraced), len(hz), len(hzTraced))
	return out, nil
}

// checkSolo steps the reference interpreter over the longest run's
// cycles and compares every run's outputs at each of its chunk
// boundaries. It returns how many comparisons it made and how many
// differed.
func checkSolo(c *circuit.Circuit, runs []soloRun, wl stimulus.Workload) (checks, bad int, err error) {
	ref, err := sim.NewRef(c)
	if err != nil {
		return 0, 0, err
	}
	chunks := 0
	for _, r := range runs {
		chunks = max(chunks, len(r.bounds))
	}
	drive := wl.NewDrive()
	for i := 0; i < chunks; i++ {
		for cyc := i * soloChunk; cyc < (i+1)*soloChunk; cyc++ {
			drive(ref, cyc)
			ref.Step()
		}
		want := outputs(c, ref.Output)
		for ri, r := range runs {
			if i >= len(r.bounds) {
				continue
			}
			checks++
			for j := range want {
				if r.bounds[i][j] != want[j] {
					fmt.Printf("MISMATCH engine %d at cycle %d: output %s = %#x, reference %#x\n",
						ri, (i+1)*soloChunk, c.Names[c.Outputs()[j]], r.bounds[i][j], want[j])
					bad++
					break
				}
			}
		}
	}
	return checks, bad, nil
}
