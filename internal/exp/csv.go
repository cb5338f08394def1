package exp

import (
	"io"
	"strconv"

	"repro/internal/stack"
)

// CSV emitters produce machine-readable versions of every artifact, so the
// figures can be re-plotted with external tooling.

// WriteCurvesCSV emits Figure 1 data as benchmark,threads,speedup rows.
func WriteCurvesCSV(w io.Writer, curves []SpeedupCurve) error {
	var records [][]string
	for _, c := range curves {
		for _, p := range c.Points {
			records = append(records, []string{c.Benchmark, strconv.Itoa(p.Threads), stack.CSVFloat(p.Speedup)})
		}
	}
	return stack.WriteCSV(w, []string{"benchmark", "threads", "speedup"}, records)
}

// WriteFigure4CSV emits benchmark,threads,actual,estimated rows.
func WriteFigure4CSV(w io.Writer, rows []Figure4Row) error {
	records := make([][]string, len(rows))
	for i, r := range rows {
		records[i] = []string{r.Benchmark, strconv.Itoa(r.Threads),
			stack.CSVFloat(r.Actual), stack.CSVFloat(r.Estimated)}
	}
	return stack.WriteCSV(w, []string{"benchmark", "threads", "actual", "estimated"}, records)
}

// WriteStacksCSV emits one row per stack with every component in speedup
// units (Figure 5 data). It is stack.EncodeCSV under its historical name.
func WriteStacksCSV(w io.Writer, bars []stack.Bar) error {
	return stack.EncodeCSV(w, bars)
}

// WriteInterferenceCSV emits Figure 8/9 rows.
func WriteInterferenceCSV(w io.Writer, rows []InterferenceRow) error {
	records := make([][]string, len(rows))
	for i, r := range rows {
		records[i] = []string{r.Label, stack.CSVFloat(r.Negative),
			stack.CSVFloat(r.Positive), stack.CSVFloat(r.Net)}
	}
	return stack.WriteCSV(w, []string{"label", "negative", "positive", "net"}, records)
}

// WriteTreeCSV emits Figure 6 rows.
func WriteTreeCSV(w io.Writer, rows []TreeRow) error {
	header := []string{"class", "comp1", "comp2", "comp3", "benchmark", "suite",
		"speedup", "paper_speedup"}
	comp := func(c []string, i int) string {
		if i < len(c) {
			return c[i]
		}
		return ""
	}
	records := make([][]string, len(rows))
	for i, r := range rows {
		records[i] = []string{string(r.Class), comp(r.Components, 0), comp(r.Components, 1),
			comp(r.Components, 2), r.Benchmark, r.Suite,
			stack.CSVFloat(r.Speedup), stack.CSVFloat(r.PaperSpeedup)}
	}
	return stack.WriteCSV(w, header, records)
}
