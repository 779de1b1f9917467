package core

import "testing"

// TestPlanProbeSourcesExcludesTarget hammers the shared probe planner with
// every node as target: the target must never appear among its own sources
// (a self-referential scheme would be evaluated as a spuriously perfect
// derivation), sources must be distinct model nodes, and the count must be
// 2 or 3.
func TestPlanProbeSourcesExcludesTarget(t *testing.T) {
	g := seasonalCube(t, 30)
	adv, err := NewAdvisor(g, Options{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	modelIDs := make([]int, g.NumNodes())
	for i := range modelIDs {
		modelIDs[i] = i
	}
	for trial := 0; trial < 50; trial++ {
		for target := 0; target < g.NumNodes(); target++ {
			srcs := adv.planProbeSources(target, modelIDs, nil)
			if len(srcs) < 2 || len(srcs) > 3 {
				t.Fatalf("target %d: %d sources, want 2 or 3", target, len(srcs))
			}
			seen := make(map[int]bool, len(srcs))
			for _, s := range srcs {
				if s == target {
					t.Fatalf("target %d selected as its own source: %v", target, srcs)
				}
				if seen[s] {
					t.Fatalf("target %d: duplicate source in %v", target, srcs)
				}
				seen[s] = true
			}
		}
	}
	// With a single non-target model there is no viable multi-source set.
	if srcs := adv.planProbeSources(3, []int{3, 5}, nil); srcs != nil {
		t.Fatalf("one usable source should yield no plan, got %v", srcs)
	}
	if srcs := adv.planProbeSources(3, []int{3}, nil); srcs != nil {
		t.Fatalf("target-only model set should yield no plan, got %v", srcs)
	}
}

// TestProbePlanTargetNeverInSources covers planning the way the control
// phase does it — a random target against the model set of a run in
// progress, where the near pool is often too small and the full model list
// takes over: every plan has a source set that excludes the target.
func TestProbePlanTargetNeverInSources(t *testing.T) {
	g := seasonalCube(t, 31)
	adv, err := NewAdvisor(g, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := adv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	modelIDs := adv.cfg.ModelIDs()
	if len(modelIDs) < 3 {
		t.Fatalf("only %d models after three iterations; nothing to plan against", len(modelIDs))
	}
	for i := 0; i < 500; i++ {
		target := adv.rng.Intn(g.NumNodes())
		for _, s := range adv.planProbeSources(target, modelIDs, nil) {
			if s == target {
				t.Fatalf("plan %d: target %d among its own sources", i, target)
			}
		}
	}
}

// TestRunSchemesNeverSelfSourced is the end-to-end regression for the probe
// planner bug: after full advisor runs (default and explicit probe counts),
// no multi-source scheme may list its own target as a source. Direct schemes
// (a node deriving from its own model, one source) are the legitimate
// exception.
func TestRunSchemesNeverSelfSourced(t *testing.T) {
	for _, opts := range []Options{
		{Seed: 32, MultiSourceProbes: 8},
		{Seed: 33},
	} {
		cfg, err := Run(seasonalCube(t, opts.Seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		for id, sc := range cfg.Schemes {
			if len(sc.Sources) <= 1 {
				continue
			}
			for _, s := range sc.Sources {
				if s == sc.Target {
					t.Fatalf("seed %d: node %d has self-sourced scheme %+v", opts.Seed, id, sc)
				}
			}
		}
	}
}
