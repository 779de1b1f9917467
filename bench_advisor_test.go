package cubefc_test

// BenchmarkAdvisorScale measures time-to-first-accepted-configuration of
// the advisor across cube sizes. Each iteration includes graph
// construction: that is the cost a fresh cube pays before its first
// advisor answer.

import (
	"fmt"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
)

// advisorFirstConfig builds the graph and runs the advisor until its first
// accepted configuration change (or hard stop).
func advisorFirstConfig(b *testing.B, d *datasets.Dataset) {
	g, err := d.Graph()
	if err != nil {
		b.Fatal(err)
	}
	accepted := 0
	a, err := core.NewAdvisor(g, core.Options{
		Seed:        42,
		Parallelism: 2,
		OnIteration: func(s core.Snapshot) { accepted += s.Accepted },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 4 && accepted == 0; i++ {
		done, err := a.Step()
		if err != nil {
			b.Fatal(err)
		}
		if done {
			break
		}
	}
	if a.Configuration().NumModels() < 1 {
		b.Fatal("no model configured")
	}
}

func BenchmarkAdvisorScale(b *testing.B) {
	for _, nodes := range []int{1_000, 10_000, 100_000} {
		opts := datasets.CubeGenForNodes(nodes, 2)
		d := datasets.GenCube(1, opts)
		b.Run(fmt.Sprintf("nodes=%d", opts.NumNodes()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				advisorFirstConfig(b, d)
			}
		})
	}
}
