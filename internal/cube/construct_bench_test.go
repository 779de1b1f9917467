package cube_test

import (
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
)

// BenchmarkConstruct isolates graph construction at the 10^5-node scale:
// skeleton enumeration (packed codes, incidence CSR, parent table, child
// index) plus base-node materialization, without any advisor work on top.
// Every advisor run on a fresh cube pays it before its first answer, so
// regressions here show up directly in BenchmarkAdvisorScale.
func BenchmarkConstruct(b *testing.B) {
	opts := datasets.CubeGenForNodes(100_000, 2)
	d := datasets.GenCube(1, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructAll is the comparison that retired the per-node
// builder: the eager oracle against NewGraph followed by MaterializeAll —
// the same end state, every node built — from tourism to 10 201 nodes.
func BenchmarkConstructAll(b *testing.B) {
	for _, d := range []*datasets.Dataset{
		datasets.Tourism(1),
		datasets.GenCube(1, datasets.CubeGenForNodes(1_000, 2)),
		datasets.GenCube(1, datasets.CubeGenForNodes(5_000, 2)),
		datasets.GenCube(1, datasets.CubeGenForNodes(10_000, 2)),
	} {
		b.Run(d.Name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cube.NewEagerOracle(d.Dims, d.Base); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.Name+"/skeleton", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := d.Graph()
				if err != nil {
					b.Fatal(err)
				}
				g.MaterializeAll()
			}
		})
	}
}
