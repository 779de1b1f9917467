package core

import "slices"

// planProbeSources selects 2–3 source model nodes for a multi-source probe
// targeting node target, preferring sources close to the target (Section
// IV-C.2: "the possibility of selecting a source node decreases with
// increasing distance from the target node"). The target itself is never a
// source: a scheme deriving a node from itself is circular and would be
// evaluated as a spuriously perfect derivation. It appends the sources,
// ascending, to dst, and none when fewer than two distinct non-target model
// nodes exist.
//
// modelIDs is ascending, as Configuration.ModelIDs returns it.
func (a *Advisor) planProbeSources(target int, modelIDs, dst []int) []int {
	// Order model nodes by BFS proximity to the target; fall back to the
	// full model list for distant targets. Both pools exclude the target.
	// The pool filters the BFS result in place — the scratch is ours until
	// it goes back — so planning allocates the returned sources and nothing
	// whose size depends on the drawn target.
	bfs := a.borrowBFS()
	defer a.returnBFS(bfs)
	near := a.g.ClosestNodes(bfs, target, a.indK)
	pool := near[:0]
	for _, id := range near {
		if _, isModel := slices.BinarySearch(modelIDs, id); isModel && id != target {
			pool = append(pool, id)
		}
	}
	if len(pool) < 2 {
		pool = pool[:0]
		for _, id := range modelIDs {
			if id != target {
				pool = append(pool, id)
			}
		}
	}
	if len(pool) < 2 {
		return dst
	}
	want := 2 + a.rng.Intn(2) // 2 or 3 sources
	if want > len(pool) {
		want = len(pool)
	}
	// Geometric preference for close sources: walk the proximity-ordered
	// pool and pick with decaying probability.
	var chosen [3]int
	n := 0
	for n < want {
		for _, id := range pool {
			if n >= want {
				break
			}
			if slices.Contains(chosen[:n], id) {
				continue
			}
			if a.rng.Float64() < 0.5 {
				chosen[n] = id
				n++
			}
		}
	}
	srcs := chosen[:n]
	slices.Sort(srcs)
	return append(dst, srcs...)
}
