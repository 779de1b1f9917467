// Command experiments regenerates the paper's evaluation figures
// (Section VI). Each figure prints the same rows/series the paper plots.
//
// Usage:
//
//	experiments                  # all figures, quick scale
//	experiments -fig 7           # Figure 7 on all four data sets
//	experiments -fig 8b          # one sub-figure
//	experiments -fig ablation    # design-decision ablations
//	experiments -fig scale       # build, advisor and Open at 10⁴ and 10⁵ nodes
//	experiments -scale paper     # paper-sized data sets (slow)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cubefc/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 7, 7a..7d, 8a..8f, 9a, 9b, ablation, scale, all (all but scale)")
	scaleFlag := flag.String("scale", "quick", "data set scale: quick or paper")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	flag.Parse()
	csvDir = *outDir
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	scale := experiments.Quick
	switch strings.ToLower(*scaleFlag) {
	case "quick":
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scaleFlag)
		os.Exit(2)
	}

	runners := map[string]func() error{
		"7a":       func() error { return printFig7("tourism", scale) },
		"7b":       func() error { return printFig7("sales", scale) },
		"7c":       func() error { return printFig7("energy", scale) },
		"7d":       func() error { return printFig7("gen10k", scale) },
		"8a":       func() error { return printTable(experiments.Fig8a(scale)) },
		"8b":       func() error { return printTable(experiments.Fig8b(scale)) },
		"8c":       func() error { return printTable(experiments.Fig8c(scale)) },
		"8d":       func() error { return printTable(experiments.Fig8d(scale)) },
		"8e":       func() error { return printTable(experiments.Fig8e(scale)) },
		"8f":       func() error { return printTable(experiments.Fig8f(scale)) },
		"9a":       func() error { return printTable(experiments.Fig9a(scale)) },
		"9b":       func() error { return printTable(experiments.Fig9b(scale)) },
		"ablation": func() error { return printTable(experiments.Ablations(scale)) },
		"scale":    func() error { return printTable(experiments.ScaleTable()) },
	}
	order := []string{"7a", "7b", "7c", "7d", "8a", "8b", "8c", "8d", "8e", "8f", "9a", "9b", "ablation"}

	var selected []string
	switch strings.ToLower(*fig) {
	case "all":
		selected = order
	case "7":
		selected = []string{"7a", "7b", "7c", "7d"}
	case "8":
		selected = []string{"8a", "8b", "8c", "8d", "8e", "8f"}
	case "9":
		selected = []string{"9a", "9b"}
	default:
		key := strings.ToLower(*fig)
		if _, ok := runners[key]; !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(2)
		}
		selected = []string{key}
	}

	start := time.Now()
	for _, key := range selected {
		if err := runners[key](); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s failed: %v\n", key, err)
			os.Exit(1)
		}
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
}

func printFig7(dataset string, scale experiments.Scale) error {
	return printTable(experiments.Fig7(dataset, scale))
}

// csvDir, when non-empty, receives one CSV file per printed table.
var csvDir string

func printTable(t *experiments.Table, err error) error {
	if err != nil {
		return err
	}
	t.Fprint(os.Stdout)
	if csvDir != "" {
		name := strings.ToLower(strings.SplitN(t.Title, ":", 2)[0])
		name = strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(name) + ".csv"
		fh, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(fh); err != nil {
			fh.Close()
			return err
		}
		return fh.Close()
	}
	return nil
}
