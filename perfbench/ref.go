package main

import (
	"fmt"
	"sync"

	"dedupsim/internal/circuit"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// refKey names one reference run. Outputs depend on the design, the
// stimulus and the cycle count, never on the variant, so one reference
// run covers Dedup and ESSENT jobs alike.
type refKey struct {
	hash     string
	workload string
	seed     uint64
	cycles   int
}

// refCase is one job whose final outputs must match the reference.
type refCase struct {
	key  refKey
	c    *circuit.Circuit
	wl   stimulus.Workload
	want map[string]string // the job's outputs, "%#x" as the farm reports them
	job  string
}

// refGate checks job outputs bit-exact against sim.Ref. Reference
// results are memoized by refKey for the life of the process.
type refGate struct {
	mu   sync.Mutex
	memo map[refKey]map[string]string
}

func newRefGate() *refGate { return &refGate{memo: map[refKey]map[string]string{}} }

// reference returns the final outputs of cycles of the workload on the
// reference interpreter.
func (g *refGate) reference(k refKey, c *circuit.Circuit, wl stimulus.Workload) (map[string]string, error) {
	g.mu.Lock()
	out, ok := g.memo[k]
	g.mu.Unlock()
	if ok {
		return out, nil
	}
	ref, err := sim.NewRef(c)
	if err != nil {
		return nil, err
	}
	drive := wl.NewDrive()
	for cyc := 0; cyc < k.cycles; cyc++ {
		drive(ref, cyc)
		ref.Step()
	}
	out = map[string]string{}
	for _, o := range c.Outputs() {
		v, _ := ref.Output(c.Names[o])
		out[c.Names[o]] = fmt.Sprintf("%#x", v)
	}
	g.mu.Lock()
	g.memo[k] = out
	g.mu.Unlock()
	return out, nil
}

// check verifies every case on `workers` goroutines and returns the jobs
// whose outputs differ from the reference. Distinct keys run in
// parallel; repeats of a key wait for its first run via the memo.
func (g *refGate) check(cases []refCase, workers int) ([]string, error) {
	byKey := map[refKey][]refCase{}
	var keys []refKey
	for _, rc := range cases {
		if _, ok := byKey[rc.key]; !ok {
			keys = append(keys, rc.key)
		}
		byKey[rc.key] = append(byKey[rc.key], rc)
	}
	var mu sync.Mutex
	var bad []string
	var firstErr error
	next := make(chan refKey)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				group := byKey[k]
				want, err := g.reference(k, group[0].c, group[0].wl)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for _, rc := range group {
					if err == nil && !sameOutputs(rc.want, want) {
						bad = append(bad, rc.job)
						fmt.Printf("MISMATCH %s (%s %s seed %d, %d cycles): got %v, reference %v\n",
							rc.job, rc.c.Name, k.workload, k.seed, k.cycles, rc.want, want)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return bad, firstErr
}

func sameOutputs(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
