package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// A full run re-executes its own binary once per workload; under `go
// test` that binary is the test binary, so a child is recognised by the
// variable the parent sets and handed straight to the command.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// driverLines parses the JSON lines single-workload runs end with.
func driverLines(t *testing.T, stdout string) []driverLine {
	t.Helper()
	var out []driverLine
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var dl driverLine
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&dl); err != nil {
			t.Fatalf("driver line %q: %v", line, err)
		}
		out = append(out, dl)
	}
	return out
}

// checkEmitted asserts a driver line carries exactly the declared
// metrics, each with its declared unit.
func checkEmitted(t *testing.T, who string, dl driverLine, declared []specMetric) {
	t.Helper()
	if len(dl.Metrics) != len(declared) {
		t.Errorf("%s: %d metrics emitted, %d declared", who, len(dl.Metrics), len(declared))
	}
	for _, m := range declared {
		v, ok := dl.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not emitted", who, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", who, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestDeclarationMatchesHarness keeps BENCHMARK.json and the harness's
// own tables from drifting.
func TestDeclarationMatchesHarness(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, the harness has %d", kind, len(declared), len(defs))
		}
		for i, m := range declared {
			unique(m.Name)
			d := defs[i]
			better := "higher"
			if d.lowerBetter {
				better = "lower"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the harness %s [%s] %s",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness measures for %d by default", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

// TestQuickRun drives the whole command at self-test sizes: every
// workload completes in its own child process, and every declared
// end-to-end metric comes out once per workload, under its name.
func TestQuickRun(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "3", "-outdir", dir}, &stdout, &stderr, nil); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := driverLines(t, stdout.String())
	if len(lines) != len(workloads) {
		t.Fatalf("%d driver lines, want one per workload (%d)\n%s", len(lines), len(workloads), stdout.String())
	}
	for i, dl := range lines {
		who := workloads[i].name
		if !dl.Correct || dl.Failed != 0 || dl.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", who, dl.Correct, dl.Failed, dl.Attempted)
		}
		checkEmitted(t, who, dl, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if v := dl.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", who, m.Name, v)
			}
			// Each metric is also printed by name with its unit, once.
			row := regexp.MustCompile(`(?m)^` + who + `\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `(\s|$)`)
			if n := len(row.FindAllString(stdout.String(), -1)); n != 1 {
				t.Errorf("%s: %s is printed %d times, want once", who, m.Name, n)
			}
		}
	}

	var all results
	if err := readJSON(dir+"/results.json", &all); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := all.Workloads[w.name]
		if r == nil {
			t.Fatalf("results.json has no %s", w.name)
		}
		if len(r.Corpus.Hashes) != partitions || r.Corpus.Records == 0 {
			t.Errorf("%s: corpus block %+v lacks the per-partition content hashes", w.name, r.Corpus)
		}
		if v := r.Metrics["records_per_s"]; v.N != 3 || v.Q1 == 0 || v.Q3 == 0 {
			t.Errorf("%s: records_per_s carries n=%d q1=%v q3=%v, want the sample count and quartiles", w.name, v.N, v.Q1, v.Q3)
		}
	}
	// The comparison of a result file with itself: every row ok.
	var cmp bytes.Buffer
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", dir + "/results.json", dir + "/results.json"}, &cmp, &stderr, nil); code != 0 {
		t.Fatalf("-compare of a file with itself: exit code %d\n%s\n%s", code, cmp.String(), stderr.String())
	}
	rows := strings.Count(cmp.String(), "\n") - 1
	if want := (len(spec.EndToEnd) + 1) * len(workloads); rows != want {
		t.Errorf("-compare printed %d rows, want %d (one per metric and workload)\n%s", rows, want, cmp.String())
	}
	if strings.Contains(cmp.String(), string(verdictWorse)) {
		t.Errorf("-compare of a file with itself reports a regression\n%s", cmp.String())
	}
}

// TestCompareRefusesChangedCorpus: counted metrics of different inputs
// are not comparable, and -compare says so instead of printing ratios.
func TestCompareRefusesChangedCorpus(t *testing.T) {
	dir := t.TempDir()
	mk := func(path, hash string) {
		all := results{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			all.Workloads[w.name] = &workloadResult{
				Workload: w.name,
				Corpus:   corpusInfo{Hashes: []string{hash}},
				Metrics:  map[string]metricValue{"records_per_s": {Value: 1, Unit: "records/s"}},
			}
		}
		if err := writeJSON(path, all); err != nil {
			t.Fatal(err)
		}
	}
	mk(dir+"/a.json", "aaaa")
	mk(dir+"/b.json", "bbbb")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", dir + "/a.json", dir + "/b.json"}, &stdout, &stderr, nil); code == 0 {
		t.Fatalf("-compare accepted result files of different corpora\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "corpora changed") {
		t.Errorf("-compare refused without saying why: %q", stderr.String())
	}
}

// TestCompareFlagsRegression: a second file 20% slower on one workload
// is one `worse` row and a non-zero exit.
func TestCompareFlagsRegression(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	mk := func(path string, slow float64) {
		all := results{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			r := &workloadResult{Workload: w.name, Corpus: corpusInfo{Hashes: []string{"h"}}, Metrics: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit, N: 100, Q1: 99.5, Q3: 100.5}
			}
			if w.name == "disk_batch" {
				r.Metrics["records_per_s"] = metricValue{Value: 100 / slow, Unit: "records/s", N: 100, Q1: 99.5 / slow, Q3: 100.5 / slow}
			}
			all.Workloads[w.name] = r
		}
		if err := writeJSON(path, all); err != nil {
			t.Fatal(err)
		}
	}
	mk(dir+"/a.json", 1)
	mk(dir+"/b.json", 1.2)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", dir + "/a.json", dir + "/b.json"}, &stdout, &stderr, nil); code == 0 {
		t.Errorf("-compare exits 0 on a 20%% throughput loss\n%s", stdout.String())
	}
	if n := strings.Count(stdout.String(), string(verdictWorse)); n != 1 {
		t.Errorf("%d rows are worse, want exactly the one changed\n%s", n, stdout.String())
	}
}

// TestQuickLayers runs the traced per-layer run through the same
// fan-out as `-layers`, on one workload to keep the suite short (the
// layer pass is the same program whichever workload it follows): every
// declared per-layer metric comes out, and the trace file parses into
// spans that nest.
func TestQuickLayers(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	w, _ := findWorkload("remote_rerun")
	var stdout, stderr bytes.Buffer
	if err := runAll(&stdout, &stderr, []workloadSpec{w}, 3, defaultSeconds, true, true, dir, dir+"/results-layers.json"); err != nil {
		t.Fatalf("%v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	lines := driverLines(t, stdout.String())
	if len(lines) != 1 {
		t.Fatalf("%d driver lines, want 1\n%s", len(lines), stdout.String())
	}
	if dl := lines[0]; !dl.Correct || dl.Failed != 0 {
		t.Errorf("correct=%v failed=%d of %d", dl.Correct, dl.Failed, dl.Attempted)
	}
	checkEmitted(t, w.name, lines[0], spec.PerLayer)
	if r := lines[0].Metrics["trace.reconcile_ratio"].Value; !(r > 0) {
		t.Errorf("trace.reconcile_ratio = %v, want a positive ratio", r)
	}

	var spans []span
	if err := readJSON(dir+"/trace-"+w.name+".json", &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("the trace file holds no spans")
	}
	seen := map[string]bool{}
	for i, s := range spans {
		seen[s.Name] = true
		if s.ID != i || s.EndNS < s.StartNS {
			t.Fatalf("span %d: id %d, %d..%d", i, s.ID, s.StartNS, s.EndNS)
		}
		if s.Parent == noSpan {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d (%s): parent %d was not opened before it", i, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %d (%s, %d..%d) is not inside its parent %s (%d..%d)", i, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
	for _, want := range []string{"remote_rerun", "sched.RunAll/cold", "sched.RunAll/warm", "worker.Eval", "round", "core.decode", "analysis.level_one", "stream.lag"} {
		if !seen[want] {
			t.Errorf("the trace has no %q span", want)
		}
	}
}

// A correctness check that cannot fail is not a check: break the input
// or the reference of each workload and see it report failures and the
// command exit non-zero.
func TestCheckerIsLive(t *testing.T) {
	flipStoreByte := func(cs *corpusState) {
		path := storeFile(cs.storeDir, 1)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// One cell of the reference tables: the first digit becomes another.
	alterReference := func(cs *corpusState) {
		i := strings.IndexAny(cs.reference, "0123456789")
		cs.reference = cs.reference[:i] + string('0'+(cs.reference[i]-'0'+1)%10) + cs.reference[i+1:]
	}
	alterHash := func(cs *corpusState) { cs.hashes[2] = cs.hashes[3] }
	cases := []struct {
		workload string
		what     string
		sabotage func(*corpusState)
		all      bool // every operation must fail, not just some
	}{
		{"disk_batch", "a flipped byte in a spilled partition file", flipStoreByte, true},
		{"remote_rerun", "a flipped byte in a spilled partition file", flipStoreByte, true},
		{"disk_batch", "an altered cell of the reference tables", alterReference, true},
		{"stream_follow", "an altered cell of the reference tables", alterReference, true},
		{"remote_rerun", "an altered cell of the reference tables", alterReference, true},
		{"spill_write", "an altered cell of the reference tables", alterReference, false}, // only the read-back compares tables
		{"spill_write", "an altered reference content hash", alterHash, false},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+strings.ReplaceAll(c.what, " ", "_"), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", c.workload, "-quick", "-seed", "3", "-outdir", t.TempDir()}, &stdout, &stderr, c.sabotage)
			if code == 0 {
				t.Errorf("%s: the command exits 0", c.what)
			}
			lines := driverLines(t, stdout.String())
			if len(lines) != 1 {
				t.Fatalf("%d driver lines, want 1\n%s\n%s", len(lines), stdout.String(), stderr.String())
			}
			dl := lines[0]
			if dl.Correct || dl.Failed == 0 {
				t.Errorf("%s: correct=%v, %d failed of %d", c.what, dl.Correct, dl.Failed, dl.Attempted)
			}
			if c.all && dl.Failed != dl.Attempted {
				t.Errorf("%s: only %d of %d operations failed", c.what, dl.Failed, dl.Attempted)
			}
			if !strings.Contains(stdout.String(), "failed_ratio") {
				t.Errorf("failed_ratio is not printed\n%s", stdout.String())
			}
		})
	}
}
