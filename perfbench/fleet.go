package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/cluster"
	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/stimulus"
	"dedupsim/internal/tenant"
	"dedupsim/perfbench/arrivals"
)

// fleet-zoo: one in-process router and two one-worker nodes talking over
// loopback HTTP, each durable (data directory, fsync interval), serving
// an open-loop arrival trace drawn from a Zipf-skewed design zoo.
const (
	fleetNodes = 2
	// fleetSetups is how many times a run starts a fleet and takes every
	// design and variant to a first result; setup_s is the median.
	fleetSetups = 3
	// fleetPoll is how often the client polls outstanding jobs.
	fleetPoll = 100 * time.Millisecond
	// fleetDrain bounds the wait for the last jobs after the window.
	fleetDrain = 60 * time.Second
	// fleetRate is the open-loop arrival rate in jobs per second, well
	// under half of what a two-core host sustains (see README.md).
	fleetRate = 20.0
	// fleetLimit is the job latency limit goodput counts against.
	fleetLimit = time.Second
)

// fleet is a running router plus its nodes.
type fleet struct {
	router *cluster.Router
	rsrv   *httptest.Server
	nodes  []*farm.Farm
	nsrvs  []*httptest.Server
}

func tenantConfig() tenant.Config {
	cfg := tenant.Config{Tenants: map[string]tenant.Limits{}}
	for _, t := range arrivals.Tenants {
		cfg.Tenants[t.Name] = tenant.Limits{Weight: t.Weight}
	}
	return cfg
}

// startFleet starts the router and nodes with their state under dir and
// registers the nodes; the fleet is ready to place jobs on return.
func startFleet(dir string) (*fleet, error) {
	r, err := cluster.OpenRouter(cluster.RouterConfig{
		DataDir: filepath.Join(dir, "router"),
		Fsync:   durable.FsyncInterval,
		Tenants: tenant.NewRegistry(tenantConfig()),
	})
	if err != nil {
		return nil, err
	}
	fl := &fleet{router: r, rsrv: httptest.NewServer(cluster.Handler(r))}
	for i := 0; i < fleetNodes; i++ {
		f, err := farm.Open(farm.Config{
			Workers:         1,
			CheckpointEvery: sweepCkpt,
			DataDir:         filepath.Join(dir, nodeID(i)),
			Fsync:           string(durable.FsyncInterval),
			Tenants:         tenant.NewRegistry(tenantConfig()),
			FetchArtifact:   cluster.RouterArtifactFetcher(nil, fl.rsrv.URL),
		})
		if err != nil {
			fl.close()
			return nil, err
		}
		srv := httptest.NewServer(farm.Handler(f))
		fl.nodes, fl.nsrvs = append(fl.nodes, f), append(fl.nsrvs, srv)
		if err := r.Register(nodeID(i), srv.URL); err != nil {
			fl.close()
			return nil, err
		}
	}
	return fl, nil
}

func nodeID(i int) string { return fmt.Sprintf("node%d", i+1) }

func (fl *fleet) close() {
	fl.rsrv.Close()
	fl.router.Close()
	for i := range fl.nodes {
		fl.nsrvs[i].Close()
		fl.nodes[i].Close()
	}
}

// fleetJob is one replayed arrival and what became of it.
type fleetJob struct {
	a      arrivals.Arrival
	due    time.Time
	sent   time.Time
	id     string
	view   *farm.JobView
	failed string
	traced bool
}

// client talks to the router over at most two connections.
type client struct {
	base string
	http *http.Client
}

func (c *client) submit(spec farm.JobSpec) (cluster.FleetJobView, error) {
	var v cluster.FleetJobView
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return v, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return v, json.Unmarshal(data, &v)
}

func (c *client) poll(id string) (cluster.FleetJobView, error) {
	var v cluster.FleetJobView
	resp, err := c.http.Get(c.base + "/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("poll %s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(data))
	}
	return v, json.Unmarshal(data, &v)
}

func runFleet(o opts) (*outcome, error) {
	if !o.traced {
		return fleetWorkload(o, nil)
	}
	tr := newTracer()
	out, err := fleetWorkload(o, tr)
	if err != nil {
		return nil, err
	}
	times, counts, err := probeFleet(tr, o.seed)
	if err != nil {
		return nil, err
	}
	addAll(out.metrics, times)
	addAll(out.metrics, counts)
	out.counts = counts
	out.spans = tr.snapshot()
	out.metrics["trace.spans"] = float64(len(out.spans))
	return out, nil
}

// probeFleet is fleet-zoo's layer probe: every zoo design, whatever the
// seed. Times and sizes add up over the zoo; ratios are averaged.
func probeFleet(tr *tracer, _ uint64) (times, counts map[string]float64, err error) {
	times, counts = map[string]float64{}, map[string]float64{}
	for _, d := range arrivals.Zoo {
		p, err := zooParams(d)
		if err != nil {
			return nil, nil, err
		}
		t, c, err := probeLayers(tr, gen.GenerateFIRRTL(p), d.Scale, stimulus.VVAddB())
		if err != nil {
			return nil, nil, err
		}
		addAll(times, t)
		addAll(counts, c)
	}
	n := float64(len(arrivals.Zoo))
	for _, k := range []string{"dedup.kept_frac", "codegen.fused_frac", "sched.reuse_mean_distance",
		"sim.activity_ratio", "sim.dyn_instrs_per_cycle", "perfmodel.ipc", "perfmodel.modeled_sim_hz"} {
		counts[k] /= n
	}
	for _, k := range []string{"sim.step_ns", "stimulus.drive_ns", "sim.dedup_vs_essent"} {
		times[k] /= n
	}
	return times, counts, nil
}

// fleetWorkload runs fleet-zoo: set-up with the cold path, then the
// replay, then the correctness check. Untraced (tr nil) it returns the
// end-to-end metrics; traced it records spans on tr and returns the
// fleet layers' metrics (farm, cluster, tenant, loadgen) and the tracing
// overhead.
func fleetWorkload(o opts, tr *tracer) (*outcome, error) {
	// The generator writes the arrival trace; the replay reads it back.
	path := filepath.Join(o.outDir, fmt.Sprintf("arrivals-%d.jsonl", o.seed))
	if err := writeTrace(path, arrivals.Params{Seed: o.seed, Rate: fleetRate, Seconds: o.seconds}); err != nil {
		return nil, err
	}
	trace, err := readTrace(path)
	if err != nil {
		return nil, err
	}
	arrivals.Analyze(trace).Write(os.Stdout)
	texts := map[string]string{}
	for _, d := range trace.Zoo {
		if d.Inline {
			p, err := zooParams(d)
			if err != nil {
				return nil, err
			}
			texts[d.Name] = gen.GenerateFIRRTL(p)
		}
	}

	dataRoot := filepath.Join(o.outDir, fmt.Sprintf("fleet-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	newClient := func(fl *fleet) *client {
		return &client{base: fl.rsrv.URL, http: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		}}
	}
	resetPeakRSS()

	// Set-up: start a fleet and bring every design and variant to its
	// first result, one job at a time (the cold path, measured alone).
	// Each set-up starts a fleet of its own; the last one serves the
	// replay, so the replay measures the warm path under load.
	var setups []float64
	var coldViews []*fleetJob
	var fl *fleet
	for k := 0; k < fleetSetups; k++ {
		if fl != nil {
			fl.close()
		}
		runtime.GC()
		t0 := time.Now()
		if fl, err = startFleet(filepath.Join(dataRoot, fmt.Sprint(k))); err != nil {
			return nil, err
		}
		views, err := coldPath(fl, newClient(fl), trace, texts)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fl.close()
			return nil, err
		}
		coldViews = append(coldViews, views...)
	}
	cl := newClient(fl)

	jobs := replay(cl, trace, texts, tr)
	peakMB := peakRSSMB() // set-up and replay, not the checks
	cl.http.CloseIdleConnections()
	nodeStats := make([]farm.Stats, len(fl.nodes))
	for i, f := range fl.nodes {
		nodeStats[i] = f.Stats()
	}
	routerStats := fl.router.Stats()
	fl.close()

	// Correctness: every finished job's outputs against the reference.
	circuits := map[string]*circuit.Circuit{}
	var cases []refCase
	out := &outcome{metrics: map[string]float64{"peak_rss_mb": peakMB}, attempted: len(jobs) + len(coldViews)}
	for _, j := range append(coldViews, jobs...) {
		if j.view == nil {
			out.failed++
			fmt.Printf("FAILED arrival at %.0f ms (%s): %s\n", j.a.DueMs, j.a.Design, j.failed)
			continue
		}
		c := circuits[j.a.Design]
		if c == nil {
			if c, err = buildZoo(*trace.Design(j.a.Design), texts); err != nil {
				return nil, err
			}
			circuits[j.a.Design] = c
		}
		wl, _ := workloadNamed(j.a.Workload)
		cases = append(cases, refCase{
			key: refKey{hash: c.StructuralHash().String(), workload: j.a.Workload, seed: j.a.Seed, cycles: j.a.Cycles},
			c:   c, wl: wl.WithSeed(j.a.Seed), want: j.view.Stats.Outputs, job: j.id,
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
	fmt.Printf("%d arrivals at %g/s over %gs and %d cold-path jobs; %d done, %d matched the reference\n",
		len(jobs), fleetRate, o.seconds, len(coldViews), len(cases), len(cases)-len(bad))

	// Latency runs from each job's due time to its finish on the node; a
	// failed or refused job never meets the limit.
	var lat, latTraced, latUntraced, late []float64
	var firstDue, lastDone time.Time
	var cycles int64
	within := 0
	for _, j := range jobs {
		late = append(late, ms(j.sent.Sub(j.due)))
		if firstDue.IsZero() || j.due.Before(firstDue) {
			firstDue = j.due
		}
		l := math.Inf(1)
		if j.view != nil {
			l = ms(j.view.FinishedAt.Sub(j.due))
			cycles += j.view.Stats.Cycles
			if j.view.FinishedAt.After(lastDone) {
				lastDone = j.view.FinishedAt
			}
			if j.traced {
				latTraced = append(latTraced, l)
			} else {
				latUntraced = append(latUntraced, l)
			}
		}
		if l <= ms(fleetLimit) {
			within++
		}
		lat = append(lat, l)
	}
	window := lastDone.Sub(firstDue).Seconds()
	fmt.Printf("window %.2fs, generator late p95 %.2f ms\n", window, quantile(late, 0.95))

	if tr == nil {
		var firsts []float64
		for _, j := range coldViews {
			if j.view != nil {
				firsts = append(firsts, ms(j.view.FinishedAt.Sub(j.due)))
			}
		}
		out.metrics["sim_hz"] = float64(cycles) / window
		out.metrics["setup_s"] = median(setups)
		out.metrics["first_result_ms"] = median(firsts)
		out.metrics["job_p50_ms"] = quantile(lat, 0.5)
		out.metrics["job_p95_ms"] = quantile(lat, 0.95)
		out.metrics["goodput_jobs_s"] = float64(within) / window
		return out, nil
	}

	out.metrics = map[string]float64{}
	var views []farm.JobView
	waits := map[string][]float64{}
	for _, j := range jobs {
		if j.view != nil {
			views = append(views, *j.view)
			waits[j.a.Tenant] = append(waits[j.a.Tenant], ms(j.view.StartedAt.Sub(j.view.CreatedAt)))
		}
	}
	var merged farm.Stats
	for _, st := range nodeStats {
		merged.CheckpointsTaken += st.CheckpointsTaken
		merged.JobsRetried += st.JobsRetried
		merged.CompileMsSpent += st.CompileMsSpent
		merged.Cache.Hits += st.Cache.Hits
		merged.Cache.Misses += st.Cache.Misses
	}
	addAll(out.metrics, farmMetrics(views, merged))
	keys := map[[2]string]bool{}
	for _, a := range trace.Arrivals {
		keys[[2]string{a.Design, a.Variant}] = true
	}
	out.metrics["cluster.compiles_per_design"] = float64(merged.Cache.Misses) / float64(len(keys))
	var throttled int64
	for _, v := range routerStats.Tenants {
		throttled += v.Shed
	}
	out.metrics["tenant.throttled"] = float64(throttled)
	for _, t := range arrivals.Tenants {
		if w := waits[t.Name]; len(w) > 0 {
			out.metrics["tenant."+t.Name+".queue_wait_p95_ms"] = quantile(w, 0.95)
		}
	}
	out.metrics["loadgen.late_ms_p95"] = quantile(late, 0.95)
	spans := tr.snapshot()
	out.metrics["cluster.submit_ms"] = meanMs(durs(spans, "cluster.submit"))
	out.metrics["cluster.poll_ms"] = meanMs(durs(spans, "cluster.poll"))
	out.metrics["trace.overhead_pct"] = 100 * (median(latTraced) - median(latUntraced)) / median(latUntraced)
	fmt.Printf("tracing overhead: job_p50_ms %.1f untraced vs %.1f traced (%d and %d jobs)\n",
		median(latUntraced), median(latTraced), len(latUntraced), len(latTraced))
	return out, nil
}

// replay submits every arrival at its due time (open loop: a slow fleet
// does not slow the arrivals) from two submitter goroutines, polls the
// router until each job ends, and returns the jobs in arrival order.
// Even-numbered arrivals carry spans when tr is set.
func replay(cl *client, trace *arrivals.Trace, texts map[string]string, tr *tracer) []*fleetJob {
	jobs := make([]*fleetJob, len(trace.Arrivals))
	start := time.Now().Add(50 * time.Millisecond)
	for i, a := range trace.Arrivals {
		jobs[i] = &fleetJob{a: a, due: start.Add(time.Duration(a.DueMs * float64(time.Millisecond))), traced: tr != nil && i%2 == 0}
	}
	var mu sync.Mutex
	var live []*fleetJob
	queue := make(chan *fleetJob, len(jobs))
	submitted := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				jtr := tr
				if !j.traced {
					jtr = nil
				}
				j.sent = time.Now()
				id := jtr.begin("cluster.submit", -1, "")
				v, err := cl.submit(zooSpec(j.a, trace, texts))
				jtr.end(id)
				mu.Lock()
				if err != nil {
					j.failed = err.Error()
				} else {
					j.id = v.ID
					live = append(live, j)
				}
				mu.Unlock()
			}
		}()
	}
	go func() {
		for _, j := range jobs {
			time.Sleep(time.Until(j.due))
			queue <- j
		}
		close(queue)
		wg.Wait()
		close(submitted)
	}()

	// Poll accepted jobs until each is terminal or the drain bound passes.
	deadline := start.Add(time.Duration(trace.Params.Seconds*float64(time.Second)) + fleetDrain)
	for {
		mu.Lock()
		pending := live
		live = nil
		mu.Unlock()
		var still []*fleetJob
		for _, j := range pending {
			jtr := tr
			if !j.traced {
				jtr = nil
			}
			id := jtr.begin("cluster.poll", -1, j.id)
			v, err := cl.poll(j.id)
			jtr.end(id)
			switch {
			case err != nil:
				j.failed = err.Error()
			case v.Status == farm.StatusDone && v.Stats != nil:
				view := v.JobView
				j.view = &view
				if jtr != nil {
					root := tr.add("fleet.job", j.due, view.FinishedAt, -1, j.id)
					tr.add("farm.queue", view.CreatedAt, view.StartedAt, root, j.id)
					tr.add("farm.run", view.StartedAt, view.FinishedAt, root, j.id)
				}
			case v.Status.Terminal():
				j.failed = fmt.Sprintf("%s: %s", v.Status, v.Error)
			default:
				still = append(still, j)
			}
		}
		mu.Lock()
		live = append(live, still...)
		waiting := len(live)
		mu.Unlock()
		select {
		case <-submitted:
			if waiting == 0 {
				return jobs
			}
		default:
		}
		if time.Now().After(deadline) {
			<-submitted
			mu.Lock()
			for _, j := range live {
				j.failed = "not finished before the drain bound"
			}
			mu.Unlock()
			return jobs
		}
		time.Sleep(fleetPoll)
	}
}

// coldPath submits one job per zoo design and variant to an idle, fresh
// fleet, one at a time, waiting for each on its node: the latency of a
// first result, compile miss included, without queueing behind others.
func coldPath(fl *fleet, cl *client, trace *arrivals.Trace, texts map[string]string) ([]*fleetJob, error) {
	var jobs []*fleetJob
	for _, d := range trace.Zoo {
		for _, variant := range []string{"Dedup", "ESSENT"} {
			a := arrivals.Arrival{Tenant: arrivals.Tenants[0].Name, Design: d.Name, Variant: variant,
				Workload: "A", Seed: 1, Cycles: d.Cycles / 2}
			j := &fleetJob{a: a, due: time.Now()}
			j.sent = j.due
			jobs = append(jobs, j)
			v, err := cl.submit(zooSpec(a, trace, texts))
			if err != nil {
				j.failed = err.Error()
				continue
			}
			j.id = v.ID
			var nj *farm.Job
			for i, f := range fl.nodes {
				if v.Node == nodeID(i) {
					nj, _ = f.Job(v.RemoteID)
				}
			}
			if nj == nil {
				return nil, fmt.Errorf("cold job %s: no job %q on node %q", v.ID, v.RemoteID, v.Node)
			}
			<-nj.Done()
			nv := nj.View()
			if nv.Status != farm.StatusDone || nv.Stats == nil {
				j.failed = fmt.Sprintf("%s: %s", nv.Status, nv.Error)
				continue
			}
			j.view = &nv
		}
	}
	return jobs, nil
}

// zooSpec is the job spec an arrival submits.
func zooSpec(a arrivals.Arrival, trace *arrivals.Trace, texts map[string]string) farm.JobSpec {
	d := trace.Design(a.Design)
	spec := farm.JobSpec{
		Variant: a.Variant, Workload: a.Workload, Seed: a.Seed, Cycles: a.Cycles, VCD: a.VCD, Tenant: a.Tenant,
	}
	if d.Inline {
		spec.FIRRTL = texts[d.Name]
	} else {
		spec.Design, spec.Scale = d.Design, d.Scale
	}
	return spec
}

func zooParams(d arrivals.Design) (gen.SoCParams, error) {
	fam, cores, err := gen.ParseDesign(d.Design)
	if err != nil {
		return gen.SoCParams{}, err
	}
	return gen.Config(fam, cores, d.Scale), nil
}

// buildZoo elaborates a zoo design the way the farm does: inline text
// through the FIRRTL front end, named designs through the generator.
func buildZoo(d arrivals.Design, texts map[string]string) (*circuit.Circuit, error) {
	if d.Inline {
		return firrtl.Compile(texts[d.Name])
	}
	p, err := zooParams(d)
	if err != nil {
		return nil, err
	}
	return gen.Build(p)
}

func workloadNamed(name string) (stimulus.Workload, error) {
	switch name {
	case "A":
		return stimulus.VVAddA(), nil
	case "B":
		return stimulus.VVAddB(), nil
	}
	return stimulus.Workload{}, fmt.Errorf("unknown stimulus workload %q", name)
}

func writeTrace(path string, p arrivals.Params) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := arrivals.Generate(p).Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) (*arrivals.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return arrivals.Read(f)
}
