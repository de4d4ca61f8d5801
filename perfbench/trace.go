package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name ("layer.Function"),
// start and end as offsets from the tracer's epoch, the span that caused
// it (-1 for a root) and the job it belongs to ("" when none).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	job        string
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil test per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, job: job})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id; a no-op for id < 0.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span that was timed elsewhere, such as a job's queue
// wait read back from its view; it returns the span's id.
func (t *tracer) add(name string, start, end time.Time, parent int, job string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent, job: job})
	return len(t.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durs returns the durations of the finished spans named name.
func durs(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[layerOf(s.name)] += (s.end - s.start) - union(iv)
	}
	return self
}

// union returns the total length covered by the intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var lo, hi time.Duration = 0, -1
	for _, x := range iv {
		if x[0] > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// writeSelfTimes prints the per-layer self-time table, largest first.
func writeSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	fmt.Fprintf(w, "self time by layer (%d spans):\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.3f ms\n", l, float64(self[l])/1e6)
	}
}

// writeChrome writes the spans as a Chrome trace-event file (opens in
// Perfetto or chrome://tracing). Each span goes on the track of its job,
// or of its root span when it has no job, so nested spans stack.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tracks := map[string]int{}
	track := func(i int) int {
		key := spans[i].job
		if key == "" {
			for spans[i].parent >= 0 {
				i = spans[i].parent
			}
			key = fmt.Sprintf("#%d", i)
		}
		if t, ok := tracks[key]; ok {
			return t
		}
		tracks[key] = len(tracks) + 1
		return tracks[key]
	}
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		args := map[string]string{}
		if s.job != "" {
			args["job"] = s.job
		}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		if err := enc.Encode(event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: track(i), Args: args,
		}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
