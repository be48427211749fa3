package main

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareFiles applies the bounds in the spec to two result files of
// full runs, a (the base) and b, printing one row per metric and
// workload. It reports whether any row is worse, and refuses to
// compare files whose corpora differ.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, fmt.Errorf("bounds: %w", err)
	}
	var a, b results
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("%s is missing from one of the files", wl.name)
		}
		if !slices.Equal(ra.Corpus.Hashes, rb.Corpus.Hashes) {
			return false, fmt.Errorf("%s: the corpora changed between %s and %s (partition content hashes differ): counted metrics are not comparable; regenerate both with the same -seed on commits that generate the same corpus",
				wl.name, aPath, bPath)
		}
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tworkload\tA (base)\tB\tB/A\tbound\tverdict\n")
	for _, m := range spec.EndToEnd {
		for _, wl := range workloads {
			ma, mb := a.Workloads[wl.name].Metrics[m.Name], b.Workloads[wl.name].Metrics[m.Name]
			v := classify(asSummary(ma), asSummary(mb), m.Better == "lower", m.Bound)
			worse = worse || v == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.4f\t%.0f%% %s\t%s\n",
				m.Name, wl.name, ma.Value, m.Unit, mb.Value, mb.Value/ma.Value, 100*m.Bound, m.Better, v)
		}
	}
	// failed_ratio has an absolute bound of zero: any failure is worse.
	for _, wl := range workloads {
		fa, fb := a.Workloads[wl.name].FailedRatio, b.Workloads[wl.name].FailedRatio
		v := verdictOK
		if fa > 0 || fb > 0 {
			v, worse = verdictWorse, true
		}
		fmt.Fprintf(tw, "failed_ratio\t%s\t%.6g ratio\t%.6g\t-\t0 absolute\t%s\n", wl.name, fa, fb, v)
	}
	return worse, tw.Flush()
}

// asSummary reads a result's metric back as the sample summary it was
// written from; a metric without samples has no spread.
func asSummary(m metricValue) summary {
	if m.N == 0 {
		return summary{Median: m.Value, Q1: m.Value, Q3: m.Value}
	}
	return summary{Median: m.Value, Q1: m.Q1, Q3: m.Q3, N: m.N}
}
