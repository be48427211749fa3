package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blueskies/internal/synth"
)

// metricDef is one metric the harness emits. The names, units and
// directions here are what BENCHMARK.json declares; bench_test.go keeps
// the two from drifting. The regression bounds live in BENCHMARK.json
// alone.
type metricDef struct {
	name        string
	unit        string
	lowerBetter bool
}

// endToEnd is measured with tracing off and defined on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"records_per_s", "records/s", false},
	{"wall_p90_s", "s", true},
	{"cpu_s_per_mrecord", "s/Mrecord", true},
	{"alloc_bytes_per_record", "B/record", true},
	{"io_bytes_per_record", "B/record", true},
}

// perLayer is what the traced run emits, on every workload.
var perLayer = []metricDef{
	{"synth.generate_s", "s", true},
	{"synth.generate_records_per_s", "records/s", false},
	{"synth.generate_alloc_bytes_per_record", "B/record", true},
	{"synth.replay_emit_s", "s", true},
	{"synth.replay_frames", "frames", true},

	{"core.encode_s", "s", true},
	{"core.encode_mb_per_s", "MB/s", false},
	{"core.store_bytes_per_record", "B/record", true},
	{"core.file_read_s", "s", true},
	{"core.decode_s", "s", true},
	{"core.decode_mb_per_s", "MB/s", false},
	{"core.decode_allocs_per_record", "1/record", true},
	{"core.decode_alloc_bytes_per_record", "B/record", true},
	{"core.blocks_decoded", "count", true},

	{"core.ship_compress_s", "s", true},
	{"core.ship_ratio", "ratio", true},
	{"core.frame_encode_s", "s", true},
	{"core.frame_decode_s", "s", true},
	{"core.frame_bytes_per_record", "B/record", true},

	{"events.emit_s_per_frame", "s/frame", true},
	{"events.backlog_high_water_frames", "frames", true},

	{"analysis.level_one_s", "s", true},
	{"analysis.level_one_self_s", "s", true},
	{"analysis.level_one_allocs_per_record", "1/record", true},
	{"analysis.mem_batch_records_per_s", "records/s", false},
	{"analysis.state_marshal_s", "s", true},
	{"analysis.state_unmarshal_s", "s", true},
	{"analysis.state_bytes", "B", true},
	{"analysis.level_two_render_s", "s", true},
	{"analysis.render_text_s", "s", true},
	{"analysis.snapshots_per_iter", "count", true},

	{"sched.cold_wall_s", "s", true},
	{"sched.warm_wall_s", "s", true},
	{"sched.cold_shipped_bytes", "B", true},
	{"sched.warm_shipped_bytes", "B", true},
	{"sched.cache_hits", "count", false},
	{"sched.cache_misses", "count", true},
	{"sched.prefetches", "count", true},
	{"sched.steals", "count", true},
	{"sched.speculations", "count", true},
	{"sched.local_evals", "count", true},
	{"sched.worker_eval_s", "s", true},
	{"sched.worker_put_s", "s", true},
	{"sched.useful_eval_ratio", "ratio", false},
	{"sched.overhead_ratio", "ratio", true},

	{"stream.snapshot_lag_ms_p50", "ms", true},
	{"stream.snapshot_lag_ms_p90", "ms", true},
	{"stream.generator_late_ms_p90", "ms", true},
	{"stream.backlog_end_frames", "frames", true},

	{"proc.peak_rss_mb", "MB", true},
	{"proc.gc_cycles_per_iter", "1/iter", true},
	{"proc.allocs_per_record", "1/record", true},

	{"trace.reconcile_ratio", "ratio", true},
	{"trace.overhead_ratio", "ratio", true},
}

const (
	// defaultSeconds is how long a run measures; BENCHMARK.json's
	// run_seconds says the same.
	defaultSeconds = 10
	// setUps is how many timed set-ups a run makes, after one untimed:
	// setup_s is their median. Every set-up ends with warmUps untimed
	// operations and is followed by a third of the run's measuring.
	setUps  = 3
	warmUps = 2
	// minIterations keeps minBeyond samples beyond the 90th percentile
	// however slow the box or the workload is: the slower workloads
	// measure for longer than -seconds to get there. (Split over the
	// set-ups it comes to 102.)
	minIterations = 100
	// maxLoop stops a run on a box so slow that minIterations would
	// take it past the driver's limit; the run then fails for want of
	// samples instead of hanging.
	maxLoop = 150 * time.Second
)

// metricValue is one emitted number with, where it was sampled per
// iteration, the quartiles and count of the samples.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

type corpusInfo struct {
	Scale      int      `json:"scale"`
	Partitions int      `json:"partitions"`
	Records    int      `json:"records"`
	Hashes     []string `json:"content_hashes"`
}

// workloadResult is everything one run of one workload found.
type workloadResult struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Quick       bool                   `json:"quick,omitempty"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedRatio float64                `json:"failed_ratio"`
	Errors      []string               `json:"errors,omitempty"`
	Corpus      corpusInfo             `json:"corpus"`
	Metrics     map[string]metricValue `json:"metrics"`
	// WallsS is the raw sample behind the timings: every successful
	// timed operation's wall, in order.
	WallsS []float64 `json:"walls_s,omitempty"`
	// TraceSelfS is each span name's median self time in the traced
	// iterations of the workload; TraceFile holds the spans.
	TraceSelfS map[string]float64 `json:"trace_self_s,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

// runConfig is one run of one workload.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds int
	traced  bool
	quick   bool
	outDir  string
	// afterSetup, when set, runs on the corpus of every set-up before
	// the warm-ups: tests use it to break the store or the reference
	// and see the checks fire.
	afterSetup func(*corpusState)
}

func (rc runConfig) scale() int {
	if rc.quick {
		return rc.spec.quickScale
	}
	return rc.spec.scale
}

// live is a set-up workload and the directory it owns.
type live struct {
	inst instance
	cs   *corpusState
	dir  string
}

func (l *live) tearDown() {
	l.inst.close()
	os.RemoveAll(l.dir)
}

// setUp generates the workload's inputs from the seed, spills them,
// computes the reference and runs the warm-ups. Everything it writes
// goes under a fresh directory in outDir.
func (rc runConfig) setUp() (*live, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.outDir, rc.spec.name+"-")
	if err != nil {
		return nil, err
	}
	cs, err := buildCorpus(synth.Config{Scale: rc.scale(), Seed: rc.seed}, filepath.Join(dir, "store"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	inst, err := rc.spec.open(cs, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if rc.afterSetup != nil {
		rc.afterSetup(cs)
	}
	n := warmUps
	if rc.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		inst.iterate(nil, -1-i)
	}
	return &live{inst: inst, cs: cs, dir: dir}, nil
}

// runWorkload runs one workload once and reports what it measured.
func runWorkload(rc runConfig) (*workloadResult, error) {
	if runtime.GOMAXPROCS(0) > 4 {
		// Never more runnable threads than the reference class of box.
		runtime.GOMAXPROCS(4)
	}
	res := &workloadResult{
		Workload: rc.spec.name, Seed: rc.seed, Traced: rc.traced, Quick: rc.quick,
		Metrics: make(map[string]metricValue),
	}
	var outs []outcome
	var err error
	if rc.traced {
		outs, err = rc.runTraced(res)
	} else {
		outs, err = rc.runTimed(res)
	}
	res.Failed, res.Attempted = countFailed(outs)
	res.FailedRatio = failedRatio(res.Failed, res.Attempted)
	res.Correct = err == nil && res.Failed == 0 && res.Attempted > 0
	for _, o := range outs {
		if o.Err != nil && len(res.Errors) < 5 {
			res.Errors = append(res.Errors, o.Err.Error())
		}
	}
	return res, err
}

func (res *workloadResult) setCorpus(rc runConfig, cs *corpusState) {
	res.Corpus = corpusInfo{Scale: rc.scale(), Partitions: partitions, Records: cs.records, Hashes: cs.hashes}
}

func (res *workloadResult) put(name, unit string, v float64) {
	res.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (res *workloadResult) putSampled(name, unit string, v float64, s summary) {
	res.Metrics[name] = metricValue{Value: v, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// runTimed is the end-to-end run: tracing off, a closed loop of one
// client that issues the next operation when the last one returned.
func (rc runConfig) runTimed(res *workloadResult) ([]outcome, error) {
	// A run is setUps blocks, each a timed set-up followed by its share
	// of the measured operations, so that a noisy spell on a shared box
	// meets one set-up and not all of them. The process's first set-up
	// pays for page faults and heap growth the later ones do not; it
	// runs untimed, like a warm-up operation.
	cold, blocks, perBlock := 1, setUps, (minIterations+setUps-1)/setUps
	blockTime := time.Duration(rc.seconds) * time.Second / setUps
	if rc.quick {
		cold, blocks, perBlock, blockTime = 0, 1, 3, 0
	}
	var setupS []float64
	var its []iteration
	var outs []outcome
	for b := -cold; b < blocks; b++ {
		t0 := time.Now()
		l, err := rc.setUp()
		if err != nil {
			return outs, fmt.Errorf("set-up: %w", err)
		}
		if b < 0 {
			l.tearDown()
			continue
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		res.setCorpus(rc, l.cs)

		runtime.GC()
		blockStart := time.Now()
		for i := 0; i < perBlock || time.Since(blockStart) < blockTime; i++ {
			if time.Since(blockStart) >= maxLoop/setUps {
				break
			}
			it := l.inst.iterate(nil, i)
			outs = append(outs, it.outcome)
			if !it.outcome.failed() {
				its = append(its, it)
			}
		}
		outs = append(outs, l.inst.final()...)
		l.tearDown()
	}
	if len(its) == 0 {
		return outs, fmt.Errorf("no iteration of %s succeeded", rc.spec.name)
	}

	var total cost
	var records float64
	var walls, rates, cpus, allocs, ios []float64
	for _, it := range its {
		total.add(it.cost)
		r := float64(it.records)
		records += r
		ios = append(ios, float64(it.ioBytes)/r)
		walls = append(walls, it.cost.Wall.Seconds())
		rates = append(rates, r/it.cost.Wall.Seconds())
		cpus = append(cpus, it.cost.CPU.Seconds()/r*1e6)
		allocs = append(allocs, float64(it.cost.AllocBytes)/r)
	}
	res.WallsS = walls
	ss := summarize(setupS)
	res.putSampled("setup_s", "s", ss.Median, ss)
	ws := summarize(walls)
	res.putSampled("records_per_s", "records/s", records/float64(len(its))/ws.Median, summarize(rates))
	p90, err := percentile(walls, 0.9)
	if err != nil {
		if !rc.quick {
			return outs, fmt.Errorf("wall_p90_s: %w", err)
		}
		p90 = rank(walls, 1) // the self-test's three samples have no tail
	}
	res.putSampled("wall_p90_s", "s", p90, ws)
	// Totals over the timed iterations, not medians: CPU accounting and
	// allocation are sums by nature, and the checks between iterations
	// are outside the measured regions already.
	res.putSampled("cpu_s_per_mrecord", "s/Mrecord", total.CPU.Seconds()/records*1e6, summarize(cpus))
	res.putSampled("alloc_bytes_per_record", "B/record", float64(total.AllocBytes)/records, summarize(allocs))
	// A count, so the median: on three workloads every operation moves
	// the same bytes, and on remote_rerun the occasional operation in
	// which a prefetch raced its own evaluation (one payload fewer or
	// more on the wire) must not blur a number that otherwise repeats
	// exactly.
	res.put("io_bytes_per_record", "B/record", median(ios))
	res.put("wall_median_s", "s", ws.Median)
	res.putProc(total, len(its), records)
	return outs, nil
}

func (res *workloadResult) putProc(total cost, iters int, records float64) {
	res.put("proc.peak_rss_mb", "MB", peakRSSMB())
	res.put("proc.gc_cycles_per_iter", "1/iter", float64(total.GCs)/float64(iters))
	res.put("proc.allocs_per_record", "1/record", float64(total.Mallocs)/records)
}

// runTraced is the per-layer run. It first runs the workload itself,
// alternating untraced and traced iterations (the ratio of their
// medians is the tracing overhead, and the traced ones give the
// workload's own span breakdown), then the layer pass.
func (rc runConfig) runTraced(res *workloadResult) ([]outcome, error) {
	runStart := time.Now()
	l, err := rc.setUp()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setCorpus(rc, l.cs)
	tr := newTracer()

	runtime.GC()
	budget, minPairs := time.Duration(rc.seconds)*time.Second/4, 5
	if rc.quick {
		budget, minPairs = 0, 2
	}
	var outs []outcome
	var total cost
	var records float64
	var plain, traced []float64
	for i := 0; i < minPairs || time.Since(runStart) < budget; i++ {
		for _, t := range []*tracer{nil, tr} {
			it := l.inst.iterate(t, i)
			outs = append(outs, it.outcome)
			if it.outcome.failed() {
				continue
			}
			total.add(it.cost)
			records += float64(it.records)
			if t == nil {
				plain = append(plain, it.cost.Wall.Seconds())
			} else {
				traced = append(traced, it.cost.Wall.Seconds())
			}
		}
	}
	outs = append(outs, l.inst.final()...)
	l.tearDown()
	if len(plain) == 0 || len(traced) == 0 {
		return outs, fmt.Errorf("no iteration of %s succeeded", rc.spec.name)
	}
	res.putProc(total, len(plain)+len(traced), records)
	res.put("trace.overhead_ratio", "ratio", median(traced)/median(plain))
	res.TraceSelfS = medianSelfByName(tr.snapshot())

	deadline := runStart.Add(time.Duration(rc.seconds-lagSeconds) * time.Second)
	layers, louts, err := runLayerPass(tr, rc.seed, rc.quick, rc.outDir, deadline)
	outs = append(outs, louts...)
	if err != nil {
		return outs, err
	}
	units := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	for name, s := range layers {
		unit, ok := units[name]
		if !ok {
			unit = "s" // a stage's wall time beyond the declared set
		}
		res.putSampled(name, unit, s.Median, s)
	}
	res.TraceFile = filepath.Join(rc.outDir, "trace-"+rc.spec.name+".json")
	if err := writeTrace(res.TraceFile, tr.snapshot()); err != nil {
		return outs, err
	}
	return outs, nil
}

// driverLine is the one JSON object a single-workload run ends its
// standard output with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *workloadResult) declared() []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// report prints every declared metric by name with its unit, then the
// driver's line.
func (res *workloadResult) report(w io.Writer) error {
	for _, d := range res.declared() {
		v := res.Metrics[d.name]
		line := fmt.Sprintf("%-14s %-40s %14.6g %s", res.Workload, d.name, v.Value, d.unit)
		if v.N > 0 {
			line += fmt.Sprintf("   (n=%d, quartiles %.6g .. %.6g)", v.N, v.Q1, v.Q3)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s %-40s %14.6g ratio   (%d failed of %d attempted)\n",
		res.Workload, "failed_ratio", res.FailedRatio, res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "%-14s error: %s\n", res.Workload, e)
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]driverValue)}
	for _, d := range res.declared() {
		line.Metrics[d.name] = driverValue{res.Metrics[d.name].Value, d.unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}
