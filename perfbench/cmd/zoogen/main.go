// Command zoogen writes a fleet-zoo arrival trace: the same flags always
// give the same trace.
//
//	go run ./cmd/zoogen -seed 7 -rate 12 -seconds 10 -o arrivals.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"dedupsim/perfbench/arrivals"
)

func main() {
	var p arrivals.Params
	flag.Uint64Var(&p.Seed, "seed", 1, "trace seed")
	flag.Float64Var(&p.Rate, "rate", 12, "arrivals per second")
	flag.Float64Var(&p.Seconds, "seconds", 10, "arrival window in seconds")
	out := flag.String("o", "", "output file (default standard output)")
	flag.Parse()
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zoogen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := arrivals.Generate(p).Write(w); err != nil {
		fmt.Fprintln(os.Stderr, "zoogen:", err)
		os.Exit(1)
	}
}
