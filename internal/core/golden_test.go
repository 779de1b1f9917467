package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"cubefc/internal/datasets"
)

// configDigest folds everything a run decides into one FNV-64a: the sorted
// model IDs, then per node the scheme's sources, weight bits, kind and the
// node's error bits.
func configDigest(cfg *Configuration) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, id := range cfg.ModelIDs() {
		put(uint64(id))
	}
	for t := 0; t < cfg.Graph.NumNodes(); t++ {
		sc := cfg.Schemes[t]
		put(uint64(len(sc.Sources)))
		for _, s := range sc.Sources {
			put(uint64(s))
		}
		put(math.Float64bits(sc.K))
		put(uint64(sc.Kind))
		put(math.Float64bits(cfg.Errors[t]))
	}
	return h.Sum64()
}

// goldenOptions is the benchmark's advisor set-up (bench/stack.go): pinned
// γ, twelve iterations.
func goldenOptions(seed int64, parallelism int) Options {
	return Options{FixedGamma: true, Gamma0: 0.5, MaxIterations: 12, Parallelism: parallelism, Seed: seed}
}

// TestAdvisorGolden pins whole advisor runs bit for bit. The constants were
// recorded on commit d509a8e981ef080de057f291feea399d25de4d05 — the parent
// of the change that made scheme evaluation and the indicator kernels
// streaming — with this very function, so a kernel that reorders one
// floating-point operation, or a BFS that visits in another order, fails
// here.
func TestAdvisorGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may round the parent's own arithmetic differently", runtime.GOARCH)
	}
	for _, c := range advisorGoldens {
		g, err := datasets.GenCube(1, datasets.CubeGenForNodes(c.nodes, 2)).Graph()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := Run(g, goldenOptions(c.seed, c.parallelism))
		if err != nil {
			t.Fatal(err)
		}
		if got := configDigest(cfg); got != c.want {
			t.Errorf("{%d, %d, %d, %#x}: digest differs from the parent's %#x", c.nodes, c.seed, c.parallelism, got, c.want)
		}
	}
}

// advisorGoldens are TestAdvisorGolden's recorded runs: the cube's node
// count, the advisor's seed and parallelism, and the configuration digest.
var advisorGoldens = []struct {
	nodes       int
	seed        int64
	parallelism int
	want        uint64
}{
	{300, 1, 1, 0x9d2e9bcb93e08469},
	{300, 1, 2, 0x6cb14de2146f1f87},
	{300, 2, 1, 0xf6912444f623cb6e},
	{300, 2, 2, 0x5e2019b89049c318},
	{300, 3, 1, 0x14057b4c23f176fe},
	{300, 3, 2, 0xd1e01325f11f2bb4},
	{1000, 1, 1, 0x66c20c36946a8d9a},
	{1000, 1, 2, 0x6584e06a36bbb362},
	{1000, 2, 1, 0x885f7dd195257eb9},
	{1000, 2, 2, 0xa34325212237e401},
	{1000, 3, 1, 0x6f79c344a9ea06c1},
	{1000, 3, 2, 0x256337f0e0f86691},
}

// TestAdvisorResidentTwin: a run reads every series from a table it owns,
// so on a fresh graph it leaves only the base nodes resident. On a graph
// whose every node is resident the table aliases the nodes' own series
// where a fresh graph's is summed from the bases; both runs reach the
// golden digest, bit for bit.
func TestAdvisorResidentTwin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may round the parent's own arithmetic differently", runtime.GOARCH)
	}
	for _, c := range advisorGoldens {
		if c.parallelism != 2 {
			continue
		}
		for _, resident := range []bool{false, true} {
			g, err := datasets.GenCube(1, datasets.CubeGenForNodes(c.nodes, 2)).Graph()
			if err != nil {
				t.Fatal(err)
			}
			want := len(g.BaseIDs)
			if resident {
				g.MaterializeAll()
				want = g.NumNodes()
			}
			cfg, err := Run(g, goldenOptions(c.seed, c.parallelism))
			if err != nil {
				t.Fatal(err)
			}
			if got := configDigest(cfg); got != c.want {
				t.Errorf("{%d, %d, %d} resident=%v: digest %#x, golden %#x", c.nodes, c.seed, c.parallelism, resident, got, c.want)
			}
			if got := g.MaterializedNodes(); got != want {
				t.Errorf("{%d, %d, %d} resident=%v: the run left %d of %d nodes resident, want %d", c.nodes, c.seed, c.parallelism, resident, got, g.NumNodes(), want)
			}
		}
	}
}
