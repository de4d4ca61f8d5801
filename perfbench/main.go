// Command perfbench is the repository benchmark. It runs one workload
// (solo-large, sweep-lanes or fleet-zoo) for a fixed time, checks every
// simulated output against the reference interpreter, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload solo-large --seed 1 --seconds 30 --trace 0
//	perfbench --workload all --seed 1 --seconds 30   # every workload in turn
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it reports the per-layer metrics, writes a Chrome trace
// of the spans, and reports the tracing overhead. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts are the command-line settings every workload sees.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	outDir   string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// wrong reports an output that differs from the reference, or
	// separately built engines that disagree; the run then fails.
	wrong bool
	// metrics holds the end-to-end metrics (untraced) or the per-layer
	// metrics (traced) by the names of BENCHMARK.json.
	metrics map[string]float64
	// counts are the metrics that must repeat exactly for one seed.
	counts map[string]float64
	spans  []span
}

func main() {
	var o opts
	var seed int64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "solo-large, sweep-lanes, fleet-zoo, or all")
	flag.Int64Var(&seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	countsOnly := flag.Bool("counts", false, "print only the layer probe's exact counts, as JSON (the determinism check's second process)")
	flag.Parse()
	o.seed, o.traced, o.outDir = uint64(seed), trace == 1, outDir()
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	if probe, ok := probes[o.workload]; ok && *countsOnly {
		_, counts, err := probe(nil, o.seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(mustJSON(counts))
		return
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fail(err)
	}
	if o.workload == "all" {
		os.Exit(runAll(o, trace))
	}
	run, ok := workloads[o.workload]
	if !ok {
		fail(fmt.Errorf("unknown --workload %q (have %s, all)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	fp := fingerprint()
	fmt.Printf("fingerprint %s\n", mustJSON(fp))
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", o.workload, o.seed, o.seconds, trace)

	out, err := run(o)
	if err != nil {
		fail(err)
	}
	if o.traced {
		drift, err := checkCounts(o, out.counts)
		if err != nil {
			fail(err)
		}
		out.metrics["trace.count_drift"] = float64(drift)
		writeSelfTimes(os.Stdout, out.spans)
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := writeChrome(path, out.spans); err != nil {
			fail(err)
		}
		fmt.Printf("chrome trace: %s\n", path)
	} else {
		out.metrics["ok_rate"] = 1 - float64(out.failed)/float64(max(out.attempted, 1))
	}
	declared := spec.EndToEnd
	if o.traced {
		declared = spec.PerLayer
	}
	res, err := report(out, declared, o.traced)
	if err != nil {
		fail(err)
	}
	record(o, fp, res)
	fmt.Println(mustJSON(res))
	if !res.Correct {
		os.Exit(1)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*outcome, error){
	"solo-large":  runSolo,
	"sweep-lanes": runSweep,
	"fleet-zoo":   runFleet,
}

// probes maps each workload name to its layer probe: the workload's own
// designs pushed once through every compile and simulation layer.
var probes = map[string]func(*tracer, uint64) (times, counts map[string]float64, err error){
	"solo-large":  probeSolo,
	"sweep-lanes": probeSweep,
	"fleet-zoo":   probeFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runAll runs every workload in its own child process, one after the
// other (so each reports its own peak memory), and returns the exit code.
func runAll(o opts, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	code := 0
	for _, w := range workloadNames() {
		cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		fmt.Printf("=== %s\n", w)
		if err := cmd.Run(); err != nil {
			fmt.Printf("=== %s FAILED: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names and units are declared there once.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every declared metric with its unit and builds the
// result line. A measured name that is not declared is an error; a
// declared per-layer metric the workload does not exercise reads 0.
func report(out *outcome, declared []metricSpec, traced bool) (*result, error) {
	res := &result{
		Correct:   !out.wrong && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	known := map[string]bool{}
	for _, m := range declared {
		known[m.Name] = true
		v, ok := out.metrics[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		note := ""
		if !ok {
			note = "  (layer not on this workload's path)"
		}
		fmt.Printf("  %-32s %16.6g %-6s%s\n", m.Name, v, m.Unit, note)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range out.metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// checkCounts runs the workload's layer probe again in a second
// process and returns how many of this run's exact counts it did not
// repeat. Drift is flagged, not fatal: it says which counts a later
// change may not cite as exact.
func checkCounts(o opts, counts map[string]float64) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--counts")
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("determinism check: second process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var other map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &other); err != nil {
		return 0, fmt.Errorf("determinism check: second process: %w", err)
	}
	drift := 0
	for _, k := range sortedKeys(counts) {
		if ov, ok := other[k]; !ok || ov != counts[k] {
			fmt.Printf("DRIFT %s: %v in this process, %v in a second one (same seed)\n", k, counts[k], ov)
			drift++
		}
	}
	fmt.Printf("determinism: %d of %d counts repeat exactly in a second process\n", len(counts)-drift, len(counts))
	return drift, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// record appends the result, with the host fingerprint, to results.jsonl.
func record(o opts, fp map[string]any, res *result) {
	f, err := os.OpenFile(filepath.Join(o.outDir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintln(f, mustJSON(map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "workload": o.workload, "seed": o.seed,
		"seconds": o.seconds, "traced": o.traced, "fingerprint": fp, "result": res,
	}))
}

// fingerprint identifies the host and toolchain a result was measured on.
func fingerprint() map[string]any {
	fp := map[string]any{
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		"ncpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		fp["cpu"] = v
	}
	if v := procField("/proc/meminfo", "MemTotal"); v != "" {
		fp["mem"] = v
	}
	return fp
}

// procField returns the first "key: value" value in a /proc text file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// outDir is where traces, arrival files and results.jsonl go:
// $PERFBENCH_OUT, which run.sh sets, or .bench_build/out.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "out")
}

// mix derives a nonzero 64-bit value from the run seed and a salt
// (splitmix64), so every input stream is a pure function of --seed.
func mix(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt*0xd1b54a32d192ed03 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) || frac == 0 {
		return s[i]
	}
	if math.IsInf(s[i+1], 1) {
		return s[i+1] // a failed job counts as never finishing
	}
	return s[i] + frac*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// meanMs and meanNs return the mean of durations in ms and in ns.
func meanMs(ds []time.Duration) float64 { return meanNs(ds) / 1e6 }

func meanNs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return mean(xs)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
