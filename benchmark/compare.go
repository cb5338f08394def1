package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults reads a file of result lines (one run each, all of one
// workload) into per-metric samples.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
			continue // not a result line
		}
		for name, v := range r.Metrics {
			samples[name] = append(samples[name], v.Value)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return samples, sc.Err()
}

// spread is the interquartile range over the median, with the quartiles of
// Python's statistics.quantiles(v, n=4) (the driver's definition).
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1))/4 - 1
		i := min(max(int(pos), 0), len(s)-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	if len(s) < 2 || median(s) == 0 {
		return 0
	}
	return (q(3) - q(1)) / median(s)
}

// compareFiles applies the metric table's bounds to two sets of runs: b is
// worse than a on a metric when its median is worse by more than the
// metric's bound. It prints one row per metric present in both.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-36s %12s %7s %12s %7s %8s %6s\n", "metric", "median a", "iqr a", "median b", "iqr b", "shift", "bound")
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		va, vb := a[m.Name], b[m.Name]
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
		shift := 0.0 // positive: b is worse
		if ma != 0 {
			shift = (mb - ma) / ma
			if m.Better == "higher" {
				shift = -shift
			}
		}
		verdict := ""
		if m.Bound > 0 && shift > m.Bound {
			verdict, worse = "  WORSE", true
		}
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.2f", m.Bound)
		}
		fmt.Fprintf(w, "%-36s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%% %6s%s\n",
			m.Name, ma, 100*spread(va), mb, 100*spread(vb), 100*shift, bound, verdict)
	}
	return worse, nil
}
