// Package arrivals generates the fleet-zoo workload: a seeded, versioned
// trace of job arrivals that the benchmark replays open-loop, plus an analyzer
// that summarizes what a trace asks of the fleet.
//
// A trace file is JSON lines: one Header line, then one Arrival per line
// in due-time order. The same Params always give the same trace.
package arrivals

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
)

// Version is the trace format version written in every header.
const Version = 1

// Design is one entry of the design zoo.
type Design struct {
	// Name is the zoo key, e.g. "LargeBoom-4C@0.5".
	Name string `json:"name"`
	// Design and Scale name the generated design.
	Design string  `json:"design"`
	Scale  float64 `json:"scale"`
	// Inline sends the design as FIRRTL text instead of by name.
	Inline bool `json:"inline,omitempty"`
	// Cycles is the design's long cycle budget; short jobs run half.
	// Budgets are sized so no job simulates for much more than 15 ms on
	// an idle development host: per-job fixed costs, not simulation,
	// should dominate this workload.
	Cycles int `json:"cycles"`
}

// Tenant is one submitter and its fair-share weight.
type Tenant struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
}

// Zoo lists the designs in popularity order: arrivals pick rank k with
// Zipf-skewed probability, so the first few are hot and the last cold.
var Zoo = []Design{
	{Name: "Rocket-2C@0.1", Design: "Rocket-2C", Scale: 0.1, Cycles: 2000},
	{Name: "SmallBoom-2C@0.2", Design: "SmallBoom-2C", Scale: 0.2, Cycles: 2000},
	{Name: "Rocket-4C@0.2", Design: "Rocket-4C", Scale: 0.2, Cycles: 2000},
	{Name: "Rocket-2C@0.25/firrtl", Design: "Rocket-2C", Scale: 0.25, Inline: true, Cycles: 2000},
	{Name: "LargeBoom-2C@0.2", Design: "LargeBoom-2C", Scale: 0.2, Cycles: 1000},
	{Name: "SmallBoom-4C@0.3", Design: "SmallBoom-4C", Scale: 0.3, Cycles: 1000},
	{Name: "SmallBoom-3C@0.15/firrtl", Design: "SmallBoom-3C", Scale: 0.15, Inline: true, Cycles: 2000},
	{Name: "LargeBoom-4C@0.5", Design: "LargeBoom-4C", Scale: 0.5, Cycles: 200},
}

// Tenants are the three submitters; their arrival shares follow the
// weights, which the fleet also uses for fair-share scheduling.
var Tenants = []Tenant{{"alpha", 1}, {"beta", 2}, {"gamma", 1}}

// Params fix a trace.
type Params struct {
	Seed    uint64  `json:"seed"`
	Rate    float64 `json:"rate"`    // arrivals per second
	Seconds float64 `json:"seconds"` // length of the arrival window
}

// Header is the first line of a trace file.
type Header struct {
	Version int      `json:"version"`
	Params  Params   `json:"params"`
	Zoo     []Design `json:"zoo"`
	Tenants []Tenant `json:"tenants"`
}

// Arrival is one job the replay submits at its due time.
type Arrival struct {
	DueMs    float64 `json:"due_ms"` // offset from the start of the replay
	Tenant   string  `json:"tenant"`
	Design   string  `json:"design"` // zoo key
	Variant  string  `json:"variant"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Cycles   int     `json:"cycles"`
	VCD      bool    `json:"vcd,omitempty"`
}

// Trace is a header plus its arrivals.
type Trace struct {
	Header
	Arrivals []Arrival
}

// Generation settings: the mix every trace draws from.
const (
	zipfS        = 1.1  // popularity skew over Zoo ranks
	essentShare  = 0.2  // jobs on the ESSENT variant; the rest Dedup
	vcdShare     = 0.05 // jobs that capture a waveform, all on the hottest design
	seedsPerZoo  = 3    // distinct stimulus seeds per design
	longJobShare = 0.5  // jobs that run their design's full cycle budget
)

// Generate draws a trace. The number of arrivals is fixed at
// round(Rate*Seconds) and their due times are uniform order statistics
// over the window: a Poisson process conditioned on its count. The mix
// is stratified: each design, tenant, variant, stimulus, cycle budget
// and VCD flag gets its expected share of the arrivals (the designs by
// a Zipf law over their rank), dealt out in seeded random order. So runs
// of different seeds offer the same load in a different order.
func Generate(p Params) *Trace {
	r := rand.New(rand.NewPCG(p.Seed, 0x5eed))
	n := int(p.Rate*p.Seconds + 0.5)
	due := make([]float64, n)
	for i := range due {
		due[i] = r.Float64() * p.Seconds * 1e3
	}
	sort.Float64s(due)

	zipf := make([]float64, len(Zoo))
	for k := range zipf {
		zipf[k] = 1 / math.Pow(float64(k+1), zipfS)
	}
	tw := make([]float64, len(Tenants))
	for i, t := range Tenants {
		tw[i] = float64(t.Weight)
	}
	designs := deal(r, n, zipf)
	tenants := deal(r, n, tw)
	essent := deal(r, n, []float64{1 - essentShare, essentShare})
	stim := deal(r, n, []float64{1, 1})
	long := deal(r, n, []float64{1 - longJobShare, longJobShare})
	// Waveform jobs go to arrivals of the hottest design only, so the
	// memory their captures hold does not depend on the seed.
	hot := 0
	for _, d := range designs {
		if d == 0 {
			hot++
		}
	}
	vcd := deal(r, hot, []float64{float64(hot) - vcdShare*float64(n), vcdShare * float64(n)})

	t := &Trace{Header: Header{Version: Version, Params: p, Zoo: Zoo, Tenants: Tenants}}
	for i, d := range due {
		wantVCD := false
		if designs[i] == 0 {
			wantVCD, vcd = vcd[0] == 1, vcd[1:]
		}
		a := Arrival{
			DueMs:    d,
			Tenant:   Tenants[tenants[i]].Name,
			Design:   Zoo[designs[i]].Name,
			Variant:  []string{"Dedup", "ESSENT"}[essent[i]],
			Workload: []string{"A", "B"}[stim[i]],
			Seed:     1 + r.Uint64N(seedsPerZoo),
			Cycles:   Zoo[designs[i]].Cycles / (2 - long[i]),
			VCD:      wantVCD,
		}
		t.Arrivals = append(t.Arrivals, a)
	}
	return t
}

// deal returns n category indices, category k appearing in proportion
// to weights[k] (largest-remainder rounding), in random order.
func deal(r *rand.Rand, n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for k, w := range weights {
		x := float64(n) * w / total
		counts[k] = int(x)
		rem[k] = x - float64(counts[k])
		left -= counts[k]
	}
	order := make([]int, len(weights))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Write encodes the trace as JSON lines.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Header); err != nil {
		return err
	}
	for _, a := range t.Arrivals {
		if err := enc.Encode(a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace, rejecting other format versions and designs
// missing from the header's zoo.
func Read(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t.Header); err != nil {
		return nil, fmt.Errorf("arrivals: header: %w", err)
	}
	if t.Version != Version {
		return nil, fmt.Errorf("arrivals: trace version %d, want %d", t.Version, Version)
	}
	for dec.More() {
		var a Arrival
		if err := dec.Decode(&a); err != nil {
			return nil, fmt.Errorf("arrivals: arrival %d: %w", len(t.Arrivals)+1, err)
		}
		if t.Design(a.Design) == nil {
			return nil, fmt.Errorf("arrivals: arrival %d names unknown design %q", len(t.Arrivals)+1, a.Design)
		}
		t.Arrivals = append(t.Arrivals, a)
	}
	return &t, nil
}

// Design returns the zoo entry named name, or nil.
func (h *Header) Design(name string) *Design {
	for i := range h.Zoo {
		if h.Zoo[i].Name == name {
			return &h.Zoo[i]
		}
	}
	return nil
}
