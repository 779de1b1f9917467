package core

import (
	"fmt"
	"io"
	"sort"
)

// DepthStats summarizes a configuration at one aggregation depth of the
// hyper graph (depth 0 = base series).
type DepthStats struct {
	Depth     int
	Nodes     int
	Models    int
	MeanError float64
}

// Report is a structured summary of a model configuration: the overall
// quality measures of Section II-D plus per-depth and per-scheme-kind
// breakdowns that show where models were placed and how forecasts are
// derived.
type Report struct {
	Nodes       int
	Models      int
	Error       float64
	CostSeconds float64
	// Depths lists per-aggregation-depth statistics, ascending depth.
	Depths []DepthStats
	// SchemeKinds counts nodes per derivation kind ("direct",
	// "aggregation", "disaggregation", "general", "unassigned").
	SchemeKinds map[string]int
}

// Report computes the summary of the configuration.
func (c *Configuration) Report() Report {
	r := Report{
		Nodes:       c.Graph.NumNodes(),
		Models:      c.NumModels(),
		Error:       c.Error(),
		CostSeconds: c.CostSeconds,
		SchemeKinds: make(map[string]int),
	}
	type acc struct {
		nodes, models int
		errSum        float64
	}
	byDepth := make(map[int]*acc)
	for id := 0; id < c.Graph.NumNodes(); id++ {
		depth := c.Graph.DepthOf(id)
		a := byDepth[depth]
		if a == nil {
			a = &acc{}
			byDepth[depth] = a
		}
		a.nodes++
		if _, ok := c.Models[id]; ok {
			a.models++
		}
		a.errSum += c.NodeError(id)
		if sc, ok := c.Scheme(id); ok {
			r.SchemeKinds[sc.Kind.String()]++
		} else {
			r.SchemeKinds["unassigned"]++
		}
	}
	depths := make([]int, 0, len(byDepth))
	for d := range byDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	for _, d := range depths {
		a := byDepth[d]
		r.Depths = append(r.Depths, DepthStats{
			Depth:     d,
			Nodes:     a.nodes,
			Models:    a.models,
			MeanError: a.errSum / float64(a.nodes),
		})
	}
	return r
}

// Fprint renders the report for human consumption.
func (r Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "configuration: %d models over %d nodes, overall SMAPE %.4f, creation cost %.3fs\n",
		r.Models, r.Nodes, r.Error, r.CostSeconds)
	fmt.Fprintln(w, "  depth  nodes  models  mean-error")
	for _, d := range r.Depths {
		fmt.Fprintf(w, "  %-5d  %-5d  %-6d  %.4f\n", d.Depth, d.Nodes, d.Models, d.MeanError)
	}
	kinds := make([]string, 0, len(r.SchemeKinds))
	for k := range r.SchemeKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprint(w, "  derivation kinds:")
	for _, k := range kinds {
		fmt.Fprintf(w, " %s=%d", k, r.SchemeKinds[k])
	}
	fmt.Fprintln(w)
}
