package cube_test

import (
	"testing"

	"cubefc/internal/datasets"
)

// BenchmarkConstruct isolates graph construction at the 10^5-node scale:
// skeleton enumeration (int32 cell codes interned into node IDs, incidence
// CSR, parent table, child index) plus base-node materialization, without
// any advisor work on top. Every advisor run on a fresh cube pays it before
// its first answer, so regressions here show up directly in
// BenchmarkAdvisorScale.
func BenchmarkConstruct(b *testing.B) {
	opts := datasets.CubeGenForNodes(100_000, 2)
	d := datasets.GenCube(1, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}
