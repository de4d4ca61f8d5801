package arrivals

import (
	"fmt"
	"io"
	"sort"
)

// Report summarizes what a trace asks of the fleet.
type Report struct {
	Arrivals  int
	ByDesign  map[string]float64 // share of arrivals per zoo design
	ByTenant  map[string]float64 // share of arrivals per tenant
	ByVariant map[string]float64 // share of arrivals per variant
	// RepeatShare is the share of arrivals whose design and variant
	// arrived earlier in the trace: the jobs a fleet that compiles each
	// program once would serve from an already-compiled design.
	// Optimisations that only help repeats are bounded by it.
	RepeatShare float64
}

// Analyze computes the report of a trace.
func Analyze(t *Trace) Report {
	r := Report{
		Arrivals: len(t.Arrivals),
		ByDesign: map[string]float64{}, ByTenant: map[string]float64{}, ByVariant: map[string]float64{},
	}
	seen := map[[2]string]bool{}
	repeats := 0
	for _, a := range t.Arrivals {
		r.ByDesign[a.Design]++
		r.ByTenant[a.Tenant]++
		r.ByVariant[a.Variant]++
		k := [2]string{a.Design, a.Variant}
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	if n := float64(len(t.Arrivals)); n > 0 {
		for _, m := range []map[string]float64{r.ByDesign, r.ByTenant, r.ByVariant} {
			for k := range m {
				m[k] /= n
			}
		}
		r.RepeatShare = float64(repeats) / n
	}
	return r
}

// Write prints the report as text.
func (r Report) Write(w io.Writer) {
	fmt.Fprintf(w, "arrivals %d, repeat share %.3f (design+variant already compiled)\n", r.Arrivals, r.RepeatShare)
	for _, part := range []struct {
		title string
		m     map[string]float64
	}{{"design", r.ByDesign}, {"tenant", r.ByTenant}, {"variant", r.ByVariant}} {
		keys := make([]string, 0, len(part.m))
		for k := range part.m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if a, b := part.m[keys[i]], part.m[keys[j]]; a != b {
				return a > b
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			fmt.Fprintf(w, "  %-8s %-26s %.3f\n", part.title, k, part.m[k])
		}
	}
}
