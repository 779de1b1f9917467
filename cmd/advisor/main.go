// Command advisor runs the model configuration advisor on one of the
// built-in data sets and reports the selected configuration. The final
// configuration can be saved in F²DB's storage format for later use with
// the f2dbcli tool.
//
// Usage:
//
//	advisor -dataset tourism -progress
//	advisor -dataset gen1k -alpha 0.5 -out config.f2db
//	advisor -csv facts.csv -dims "product;location=city<region" -period 12
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/daemon"
	"cubefc/internal/experiments"
	"cubefc/internal/f2db"
)

// options are the parsed flags: the shared data source plus the advisor's
// own run parameters.
type options struct {
	src        daemon.Source
	run        core.Options
	alpha      float64
	progress   bool
	out        string
	paperScale bool
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.src.Register(fs)
	fs.Int64Var(&o.run.Seed, "seed", 42, "RNG seed for the multi-source probes")
	fs.Float64Var(&o.alpha, "alpha", 0, "pin the acceptance parameter alpha (0 = paper schedule 0.1..1.0)")
	fs.IntVar(&o.run.MaxModels, "max-models", 0, "stop criterion: maximum number of models (0 = off)")
	fs.Float64Var(&o.run.TargetError, "target-error", 0, "stop criterion: target overall SMAPE (0 = off)")
	fs.BoolVar(&o.progress, "progress", false, "print one line per advisor iteration")
	fs.StringVar(&o.out, "out", "", "save the final configuration to this file")
	fs.BoolVar(&o.paperScale, "paper-scale", false, "use paper-sized data sets")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if o.paperScale {
		o.src.Scale = experiments.Paper
	}
	buildStart := time.Now()
	g, name, err := o.src.Graph()
	if err != nil {
		fail(err)
	}
	fmt.Printf("data set %s: %d base series, %d graph nodes, %d observations (graph built in %v)\n",
		name, len(g.BaseIDs), g.NumNodes(), g.Length, time.Since(buildStart).Round(time.Millisecond))

	opts := o.run
	if o.alpha > 0 {
		opts.Alpha0, opts.AlphaMax = o.alpha, o.alpha
	}
	if o.progress {
		opts.OnIteration = func(s core.Snapshot) {
			fmt.Printf("  it=%-3d alpha=%.2f gamma=%+.2f cand=%-3d created=%d accepted=%d rejected=%d deleted=%d err=%.4f models=%d\n",
				s.Iteration, s.Alpha, s.Gamma, s.Candidates, s.Created, s.Accepted, s.Rejected, s.Deleted, s.Error, s.Models)
		}
	}

	start := time.Now()
	cfg, err := core.Run(g, opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("advisor finished in %v: error=%.4f models=%d (%.1f%% of nodes) creation-cost=%.3fs\n",
		time.Since(start).Round(time.Millisecond), cfg.Error(), cfg.NumModels(),
		100*float64(cfg.NumModels())/float64(g.NumNodes()), cfg.CostSeconds)

	cfg.Report().Fprint(os.Stdout)

	if o.out != "" {
		fh, err := os.Create(o.out)
		if err != nil {
			fail(err)
		}
		if err := f2db.SaveConfiguration(fh, cfg); err != nil {
			fail(err)
		}
		if err := fh.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("configuration saved to %s\n", o.out)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "advisor:", err)
	os.Exit(1)
}
