// Command zoostat prints, for each fleet-zoo arrival trace named, the
// share of arrivals per design, tenant and variant, and the share that
// hit an already-compiled design.
//
//	go run ./cmd/zoostat arrivals.jsonl
package main

import (
	"fmt"
	"os"

	"dedupsim/perfbench/arrivals"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: zoostat TRACE.jsonl...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zoostat:", err)
			os.Exit(1)
		}
		t, err := arrivals.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "zoostat: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s (seed %d, %g/s for %gs)\n", path, t.Params.Seed, t.Params.Rate, t.Params.Seconds)
		arrivals.Analyze(t).Write(os.Stdout)
	}
}
