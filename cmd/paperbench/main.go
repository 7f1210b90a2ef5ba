// Command paperbench regenerates every table and figure from the paper's
// evaluation and prints them in order.
//
// Usage:
//
//	paperbench [-quick] [-only figure6] [-seeds 5] [-days 30] [-parallel 8]
//	paperbench -only figure6 -trace figure6.json          # Perfetto-loadable run trace
//	paperbench -trace all.jsonl -trace-format jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"spothost/internal/cli"
	"spothost/internal/experiments"
	"spothost/internal/market"
	"spothost/internal/trace"
)

var (
	run    = cli.Register(cli.Flags{Quick: true, Stride: 11, Parallel: true, Trace: true})
	only   = flag.String("only", "", "run a single experiment by name (e.g. figure6)")
	list   = flag.Bool("list", false, "list experiment names and exit")
	csvDir = flag.String("csv", "", "also write <experiment>.csv files into this directory")
)

func main() {
	run.Parse()
	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.Name)
		}
		return
	}
	defer func() {
		s := market.SharedCache().Stats()
		fmt.Fprintf(os.Stderr, "market cache: %d hits, %d misses (%d universes)\n",
			s.Hits, s.Misses, s.Universes)
	}()

	if *only != "" {
		runOne(*only, false)
	} else {
		for _, e := range experiments.All() {
			runOne(e.Name, true)
		}
	}
	cli.Check(run.Export())
}

// runOne executes one experiment, prints its rendered result (under a
// banner when the whole paper runs), and logs its wall-clock phases
// (simulate, render) to stderr.
func runOne(name string, banner bool) {
	ph := trace.NewPhases()
	res, err := run.Experiment(name)
	cli.Check(err)
	ph.Mark("sim")
	text := res.Render()
	ph.Mark("report")
	if banner {
		fmt.Printf("=== %s ===\n%s\n", name, text)
	} else {
		fmt.Println(text)
	}
	cli.Check(writeCSV(name, res))
	fmt.Fprintf(os.Stderr, "timing %s: %s\n", name, ph)
}

// writeCSV writes the experiment's CSV series into -csv, when set and
// the experiment exports one.
func writeCSV(name string, res experiments.Renderer) error {
	exp, ok := res.(experiments.CSVExporter)
	if *csvDir == "" || !ok {
		return nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(exp.CSV()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
