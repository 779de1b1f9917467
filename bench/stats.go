package main

import (
	"math"
	"sort"
)

const (
	numWindows = 10
	// minTailSamples is what one window must hold before a p99 is read
	// from it: ten samples beyond the percentile.
	minTailSamples = 1000
)

// sample is one completed operation: when it completed and how long the
// caller waited, both in nanoseconds (done from the start of the phase),
// and how many units of work it carried (1 statement, n rows, n nodes).
type sample struct {
	done, lat int64
	units     int32
}

// quantile reads the q-quantile of a sorted slice by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of an unsorted slice (0 when empty); it sorts v in place. An even
// count averages the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// windowed is the estimator every timed figure goes through. The timed
// phase is cut into numWindows equal windows and each figure is computed
// per window from the exact samples; the reported value is the median of
// the per-window values, so one burst from a noisy neighbour moves one
// window, not the result.
type windowed struct {
	throughput float64 // units per second
	p50        float64 // ns
	p99        float64 // ns; 0 when too few windows hold minTailSamples
	samples    int     // operations inside the windows
}

// windows computes the estimator over all clients' samples of a phase of
// the given length (ns). An operation belongs to the window it completed
// in for the percentiles; for throughput its units are spread over the
// windows its [start, done] interval overlaps, which keeps a workload of a
// few long operations per window from being quantised to whole operations.
func windows(clients [][]sample, nanos int64) windowed {
	win := nanos / numWindows
	var lats [numWindows][]float64
	var units [numWindows]float64
	out := windowed{}
	for _, c := range clients {
		for _, s := range c {
			if w := s.done / win; s.done >= 0 && w < numWindows {
				lats[w] = append(lats[w], float64(s.lat))
				out.samples++
			}
			start := s.done - s.lat
			if s.lat <= 0 {
				if w := s.done / win; w >= 0 && w < numWindows {
					units[w] += float64(s.units)
				}
				continue
			}
			for w := max(start/win, 0); w < numWindows && w*win < s.done; w++ {
				lo, hi := max(start, w*win), min(s.done, (w+1)*win)
				units[w] += float64(s.units) * float64(hi-lo) / float64(s.lat)
			}
		}
	}
	var thr, p50, p99 []float64
	for w := range lats {
		thr = append(thr, units[w]/(float64(win)/1e9))
		if len(lats[w]) == 0 {
			continue
		}
		sort.Float64s(lats[w])
		p50 = append(p50, quantile(lats[w], 0.50))
		if len(lats[w]) >= minTailSamples {
			p99 = append(p99, quantile(lats[w], 0.99))
		}
	}
	out.throughput, out.p50 = median(thr), median(p50)
	if len(p99) > numWindows/2 {
		out.p99 = median(p99)
	}
	return out
}

// tail reads a high percentile over the whole phase, or 0 when fewer than
// ten samples lie beyond it, and the maximum.
func tail(clients [][]sample, q float64) (pq, maxLat float64) {
	var all []float64
	for _, c := range clients {
		for _, s := range c {
			all = append(all, float64(s.lat))
		}
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Float64s(all)
	if float64(len(all))*(1-q) >= 10 {
		pq = quantile(all, q)
	}
	return pq, all[len(all)-1]
}
