package core

import (
	"testing"

	"cubefc/internal/datasets"
)

func TestAdvisorMetricsAccounting(t *testing.T) {
	g := seasonalCube(t, 8)
	adv, err := NewAdvisor(g, Options{Seed: 8, Parallelism: 2, MultiSourceProbes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m := adv.Metrics(); m.Iterations != 0 || m.ModelsBuilt != 0 {
		t.Fatalf("fresh advisor reports prior work: %+v", m)
	}
	steps := 0
	for steps < 6 {
		done, err := adv.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	m := adv.Metrics()
	if m.Iterations != int64(steps) {
		t.Fatalf("iterations = %d, want %d", m.Iterations, steps)
	}
	if m.Candidates == 0 {
		t.Fatal("no candidates recorded")
	}
	if m.ModelsBuilt == 0 {
		t.Fatal("no evaluation models recorded")
	}
	if m.Accepted+m.Rejected == 0 {
		t.Fatal("no acceptance decisions recorded")
	}
	if m.Accepted+m.Rejected > m.ModelsBuilt {
		t.Fatalf("decisions (%d+%d) exceed models built (%d)",
			m.Accepted, m.Rejected, m.ModelsBuilt)
	}
	if m.SelectionTime <= 0 || m.EvalTime <= 0 {
		t.Fatalf("phase times not recorded: %+v", m)
	}
	if m.ProbesApplied > m.ProbesPlanned {
		t.Fatalf("applied %d probes but planned only %d", m.ProbesApplied, m.ProbesPlanned)
	}
	// A negative MultiSourceProbes switches the component off (0 is the
	// default count).
	off, err := NewAdvisor(g, Options{Seed: 8, Parallelism: 2, MultiSourceProbes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, err := off.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ProbesPlanned == 0 || off.Metrics().ProbesPlanned != 0 {
		t.Fatalf("probes planned: %d enabled (want > 0), %d disabled (want 0)", m.ProbesPlanned, off.Metrics().ProbesPlanned)
	}
}

// TestAdvisorMetricsConcurrentSnapshot reads snapshots while the advisor
// steps; run under -race this proves the surface is safe for monitoring
// goroutines.
func TestAdvisorMetricsConcurrentSnapshot(t *testing.T) {
	g := seasonalCube(t, 9)
	adv, err := NewAdvisor(g, Options{Seed: 9, Parallelism: 2, MultiSourceProbes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	stop := make(chan struct{})
	got := make(chan AdvisorMetrics, 1)
	go func() {
		var last AdvisorMetrics
		for {
			select {
			case <-stop:
				got <- last
				return
			default:
				last = adv.Metrics()
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if done, err := adv.Step(); err != nil || done {
			break
		}
	}
	close(stop)
	final := <-got
	if final.Iterations > adv.Metrics().Iterations {
		t.Fatal("snapshot ran ahead of the advisor")
	}
}

// TestAdvisorWorkCounts pins the advisor's exact work counts on the
// benchmark's cube and options (bench/stack.go, two workers): indicator
// cells computed and schemes evaluated. Both repeat run to run; a change
// that moves one does more or less work, whatever the clock says.
func TestAdvisorWorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("a whole advisor run on the 5 041-node cube")
	}
	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(5000, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdvisor(g, goldenOptions(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m := a.Metrics()
	t.Logf("nodes %d, cells %d, evaluations %d", g.NumNodes(), m.IndicatorCells, m.SchemeEvals)
	if m.IndicatorCells != 136710 || m.SchemeEvals != 124930 {
		t.Errorf("%d indicator cells and %d scheme evaluations, want 136710 and 124930", m.IndicatorCells, m.SchemeEvals)
	}
}
