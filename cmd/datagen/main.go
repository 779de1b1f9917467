// Command datagen emits one of the built-in evaluation data sets as CSV
// (fact-table layout: one row per observation of every base series), so
// the synthetic data can be inspected or loaded into other systems.
//
// Usage:
//
//	datagen -dataset sales > sales.csv
//	datagen -dataset gen1k -seed 7 -out gen1k.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"cubefc/internal/datasets"
)

func main() {
	dataset := flag.String("dataset", "tourism", "data set: tourism, sales, energy, genX (X = #base series, e.g. gen5000)")
	seed := flag.Int64("seed", 42, "generator seed")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	ds, err := load(*dataset, *seed)
	if err != nil {
		fail(err)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := fh.Close(); err != nil {
				fail(err)
			}
		}()
		w = fh
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	// Header: time, one column per dimension (finest level), measure.
	fmt.Fprint(bw, "time")
	for _, dim := range ds.Dims {
		fmt.Fprintf(bw, ",%s", dim.Levels[0])
	}
	fmt.Fprintln(bw, ",value")

	for _, b := range ds.Base {
		for t, v := range b.Series.Values {
			fmt.Fprint(bw, t)
			for _, m := range b.Members {
				fmt.Fprintf(bw, ",%s", m)
			}
			fmt.Fprintf(bw, ",%g\n", v)
		}
	}
}

func load(name string, seed int64) (*datasets.Dataset, error) {
	switch name {
	case "tourism":
		return datasets.Tourism(seed), nil
	case "sales":
		return datasets.Sales(seed), nil
	case "energy":
		return datasets.Energy(seed, datasets.EnergyOptions{}), nil
	default:
		if len(name) > 3 && name[:3] == "gen" {
			x, err := strconv.Atoi(name[3:])
			if err != nil || x < 1 {
				return nil, fmt.Errorf("datagen: malformed genX data set %q", name)
			}
			return datasets.GenX(seed, x), nil
		}
		return nil, fmt.Errorf("datagen: unknown data set %q", name)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
