package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the contract the benchmark is run against, and
// the one place a metric's direction and bound are written down.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// parent of the directory the benchmark runs in.
func loadSpec() (*spec, error) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) metric(name string) (metricSpec, bool) {
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// runRecord is one child run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultFile is out/result.json.
type resultFile struct {
	Env  map[string]string `json:"env"`
	Runs []runRecord       `json:"runs"`
}

// runAll runs every workload `rounds` times, each run in a fresh child
// process of this binary with seed, seed+1, …, and writes the result file
// (and, for the self-check, AA.md).
func runAll(seed int64, seconds float64, trace, rounds int, selfCheck bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file := resultFile{Env: map[string]string{}}
	for _, kv := range environment(config{seed: seed, seconds: seconds, out: outDir}) {
		file.Env[kv[0]] = kv[1]
	}
	file.Env["time"] = time.Now().UTC().Format(time.RFC3339)
	for round := 0; round < rounds; round++ {
		for _, w := range workloadNames {
			s := seed + int64(round)
			cmd := exec.Command(self,
				"--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (seed %d): %w", w, s, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			rec := runRecord{Workload: w, Seed: s, Trace: trace}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", w, err)
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !selfCheck {
		return nil
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	return os.WriteFile("AA.md", []byte(selfCheckTable(sp, &file, rounds)), 0o644)
}

// series collects, per workload and metric, the values of every run.
func (f *resultFile) series() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives: it is what the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// sortedKeys returns the metrics of one workload, end-to-end ones first in
// BENCHMARK.json order, then the rest by name.
func sortedKeys(sp *spec, metrics map[string][]float64) []string {
	var keys []string
	for _, m := range sp.EndToEnd {
		if _, ok := metrics[m.Name]; ok {
			keys = append(keys, m.Name)
		}
	}
	var rest []string
	for name := range metrics {
		if !slices.Contains(keys, name) {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(keys, rest...)
}

// allZero reports whether a metric read 0 on every run: a per-layer metric
// of a layer the workload does not exercise. The tables leave those out.
func allZero(vals []float64) bool {
	return !slices.ContainsFunc(vals, func(v float64) bool { return v != 0 })
}

// selfCheckTable renders AA.md: for every workload and metric the median
// and quartiles over the runs, the spread as the driver computes it
// (distance between the quartiles over the median), the full range over
// the median, and the bound. The verdict holds the range, the stricter of
// the two, against the bound.
func selfCheckTable(sp *spec, f *resultFile, rounds int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# A/A self-check\n\n%d runs of every workload by the same build, seeds %s…, %s.\n"+
		"Regenerate with `go run -C bench cubefc/bench -aa %d`. Spread is (q3 − q1) ÷ median with the quartiles of Python's\n"+
		"`statistics.quantiles(n=4)`, which is what the driver holds against the bound; range is (max − min) ÷ median,\n"+
		"which is what the verdict holds against it. A metric that is `over` is demoted to `client.*` (README.md), except\n"+
		"`setup_s`: the driver wants it among the end-to-end metrics and holds only its medians to the bound.\n\n",
		rounds, f.Env["seed"], f.Env["windows"], rounds)
	keys := make([]string, 0, len(f.Env))
	for k := range f.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "- %s: %s\n", k, f.Env[k])
	}
	all := f.series()
	for _, w := range workloadNames {
		if all[w] == nil {
			continue
		}
		fmt.Fprintf(&b, "\n## %s\n\n| metric | unit | median | q1 | q3 | spread | range | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n", w)
		for _, name := range sortedKeys(sp, all[w]) {
			vals := all[w][name]
			ms, _ := sp.metric(name)
			if ms.Bound == nil && allZero(vals) {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			whole := ratio(slices.Max(vals)-slices.Min(vals), q2) // the range
			bound, verdict := "–", "–"
			if ms.Bound != nil {
				bound, verdict = num(*ms.Bound), "ok"
				if whole > *ms.Bound {
					verdict = "over"
				}
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %.4f | %.4f | %s | %s |\n",
				name, ms.Unit, num(q2), num(q1), num(q3), ratio(q3-q1, q2), whole, bound, verdict)
		}
	}
	return b.String()
}

// compareFiles prints one row per workload and metric for two result
// files: both medians with their quartiles, the ratio with its base, the
// bound, and a verdict. A spread wider than the bound on either side makes
// the verdict "unresolved", never "same".
func compareFiles(pathA, pathB string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := files[0].series(), files[1].series()
	fmt.Printf("A = %s (%s, %d runs)\nB = %s (%s, %d runs)\n\n", pathA, files[0].Env["commit"], len(files[0].Runs),
		pathB, files[1].Env["commit"], len(files[1].Runs))
	fmt.Println("| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B ÷ A | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, w := range workloadNames {
		for _, name := range sortedKeys(sp, a[w]) {
			ms, _ := sp.metric(name)
			if len(b[w][name]) == 0 || ms.Bound == nil && allZero(a[w][name]) && allZero(b[w][name]) {
				continue
			}
			a1, a2, a3 := quartiles(a[w][name])
			b1, b2, b3 := quartiles(b[w][name])
			bound, v := "–", "–"
			if ms.Bound != nil {
				bound, v = num(*ms.Bound), verdict(ms, a1, a2, a3, b1, b2, b3)
			}
			fmt.Printf("| %s | %s | %s | %s [%s, %s] | %s [%s, %s] | %.4f of %s | %s | %s |\n",
				w, name, ms.Unit, num(a2), num(a1), num(a3), num(b2), num(b1), num(b3), ratio(b2, a2), num(a2), bound, v)
		}
	}
	return nil
}

// verdict judges B against A for one bounded metric.
func verdict(ms metricSpec, a1, a2, a3, b1, b2, b3 float64) string {
	bound := *ms.Bound
	if ratio(a3-a1, a2) > bound || ratio(b3-b1, b2) > bound {
		return "unresolved"
	}
	change := ratio(b2-a2, a2) // relative to A, positive when B is larger
	if ms.Better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}
