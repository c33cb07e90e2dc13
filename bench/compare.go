package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// setupSlack is the set-up time difference below which two runs count as
// equal whatever the ratio: provisioning is a handful of key generations,
// and on the small workloads 50 ms is most of it.
const setupSlack = 0.050

// worsening is by what share of a the value b is worse, given the
// metric's direction; negative when b is better.
func worsening(m boundedMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// withinBound reports whether b is no worse than a by more than the
// metric's bound.
func withinBound(m boundedMetric, a, b float64) bool {
	if m.Name == "setup_s" && b-a < setupSlack {
		return true
	}
	return worsening(m, a, b) <= m.Bound
}

// compareFiles prints every workload × end-to-end metric of two result
// sets, one row per workload, with the relative difference and the bound
// from BENCHMARK.json, and reports whether every pair is within its bound.
func compareFiles(out io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b resultSet
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; !ok {
			return false, fmt.Errorf("workload %s is in %s but not in %s", name, aPath, bPath)
		}
		names = append(names, name)
	}
	if len(names) != len(b.Workloads) {
		return false, fmt.Errorf("%s and %s hold different workloads", aPath, bPath)
	}
	sort.Strings(names)

	ok := true
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(out, "%s (%s, %s is better, bound %.0f%%)\n", m.Name, m.Unit, m.Better, 100*m.Bound)
		tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "workload\ta\tb\tworse by\t\t")
		for _, name := range names {
			av, aok := a.Workloads[name].Metrics[m.Name]
			bv, bok := b.Workloads[name].Metrics[m.Name]
			if !aok || !bok {
				return false, fmt.Errorf("workload %s lacks metric %s", name, m.Name)
			}
			verdict := "ok"
			if !withinBound(m, av.Value, bv.Value) {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%+.2f%%\t%s\t\n", name, av.Value, bv.Value, 100*worsening(m, av.Value, bv.Value), verdict)
		}
		if err := tw.Flush(); err != nil {
			return false, err
		}
		fmt.Fprintln(out)
	}
	for _, name := range names {
		for side, r := range map[string]report{aPath: a.Workloads[name], bPath: b.Workloads[name]} {
			if r.Failed > 0 {
				fmt.Fprintf(out, "%s: %s failed %d of %d party-rounds\n", side, name, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	return ok, nil
}
