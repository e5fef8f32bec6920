package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spreadMain implements "bench spread <result.json>...": for every
// (workload, metric) across the given result records it prints the count,
// median, quartiles, the quartile spread as a share of the median, and
// (max-min)/median. Bounds in BENCHMARK.json are set from these numbers.
func spreadMain(paths []string, w io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench spread <result.json>...")
		return 2
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	values := map[key][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spread:", err)
			return 1
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			fmt.Fprintf(os.Stderr, "spread: %s: %v\n", p, err)
			return 1
		}
		for m, v := range rec.Values {
			k := key{rec.Workload, rec.Trace, m}
			values[k] = append(values[k], v)
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-8s %-5s %-34s %3s %14s %14s %14s %9s %9s\n",
		"workload", "trace", "metric", "n", "median", "q1", "q3", "iqr/med", "range/med")
	for _, k := range keys {
		s := summarizeValues(values[k])
		fmt.Fprintf(w, "%-8s %-5v %-34s %3d %14.4f %14.4f %14.4f %9.4f %9.4f\n",
			k.workload, k.trace, k.metric, s.n, s.median, s.q1, s.q3, s.iqrShare, s.rangeShare)
	}
	return 0
}

type spreadStats struct {
	n                    int
	median, q1, q3       float64
	iqrShare, rangeShare float64
}

func summarizeValues(xs []float64) spreadStats {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st := spreadStats{n: len(s), median: quantile(s, 0.5)}
	st.q1, st.q3 = quartiles(s)
	st.iqrShare = ratio(st.q3-st.q1, st.median)
	st.rangeShare = ratio(s[len(s)-1]-s[0], st.median)
	return st
}

// quartiles returns the first and third quartile of sorted data by the
// "exclusive" method of Python's statistics.quantiles(data, n=4).
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	if ld < 2 {
		return sorted[0], sorted[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
