// Command bench is the repo's benchmark: four named workloads that each
// regenerate the paper's tables from a seeded synthetic corpus along a
// different path (out of core, spill, live stream, remote workers), the
// end-to-end metrics a user of those paths pays, and a traced pass that
// times every layer from outside. README.md has the definitions.
//
// Usage:
//
//	go run ./bench -seed S                     every workload, tracing off
//	go run ./bench -seed S -layers             every workload, the traced per-layer run
//	go run ./bench -compare A.json B.json      apply the bounds to two result files
//	go run ./bench -workload W -seed S -seconds N -trace 0|1
//
// The last form runs one workload in this process and ends its output
// with one JSON line; the first two run it once per workload, each in a
// freshly started child process, and collect the children's results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run is the command. afterSetup is nil outside tests.
func run(args []string, stdout, stderr io.Writer, afterSetup func(*corpusState)) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process and end with one JSON line")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", defaultSeconds, "how long a run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 is the traced per-layer run")
	layers := fs.Bool("layers", false, "run the traced per-layer run of every workload")
	quick := fs.Bool("quick", false, "tiny corpus, three iterations: the self-test only, never for reported numbers")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "where results, traces and temporary stores go")
	out := fs.String("out", "", "result file of a full run (default <outdir>/results.json, or results-layers.json with -layers)")
	spec := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration, read by -compare for the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case fs.NArg() != 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case *seconds < 1:
		return fail(fmt.Errorf("-seconds must be at least 1"))
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		if *trace != 0 && *trace != 1 {
			return fail(fmt.Errorf("-trace is 0 or 1"))
		}
		rc := runConfig{spec: w, seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick, outDir: *outDir, afterSetup: afterSetup}
		res, err := runWorkload(rc)
		if werr := writeJSON(childFile(*outDir, w.name, rc.traced), res); werr != nil && err == nil {
			err = werr
		}
		if rerr := res.report(stdout); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			return fail(err)
		}
		if !res.Correct {
			return fail(fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted))
		}
		return 0
	}

	if *out == "" {
		*out = filepath.Join(*outDir, "results.json")
		if *layers {
			*out = filepath.Join(*outDir, "results-layers.json")
		}
	}
	if err := runAll(stdout, stderr, workloads, *seed, *seconds, *layers, *quick, *outDir, *out); err != nil {
		return fail(err)
	}
	return 0
}

func childFile(outDir, workload string, traced bool) string {
	if traced {
		return filepath.Join(outDir, "run-"+workload+"-layers.json")
	}
	return filepath.Join(outDir, "run-"+workload+".json")
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// environment is what a result file says about where it was measured.
type environment struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// results is a full run's file: one entry per workload. The corpus
// hashes that say whether two files measured the same inputs are in
// each workload's corpus block.
type results struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Traced    bool                       `json:"traced"`
	Quick     bool                       `json:"quick,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// childEnv marks a process as a child of a full run. The harness never
// reads it; the package's TestMain does, because there the program
// that re-executes itself is the test binary.
const childEnv = "BSKYBENCH_CHILD"

// runAll runs every workload in list, each in a freshly started child
// process so that peak memory, GC state and CPU accounting belong to
// one workload, and writes the collected results to out.
func runAll(stdout, stderr io.Writer, list []workloadSpec, seed int64, seconds int, traced, quick bool, outDir, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := &results{
		Env: environment{
			Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: min(runtime.GOMAXPROCS(0), 4),
			Kernel: kernelRelease(), Commit: commit(),
		},
		Seed: seed, Seconds: seconds, Traced: traced, Quick: quick,
		Workloads: make(map[string]*workloadResult),
	}
	var failed []string
	for _, w := range list {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-outdir", outDir, "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if quick {
			args = append(args, "-quick")
		}
		// A result file left by an earlier run must not stand in for a
		// child that died before writing its own.
		os.Remove(childFile(outDir, w.name, traced))
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		var res workloadResult
		if err := readJSON(childFile(outDir, w.name, traced), &res); err != nil {
			return fmt.Errorf("%s: no result (%v): %w", w.name, runErr, err)
		}
		all.Workloads[w.name] = &res
		if runErr != nil || !res.Correct {
			failed = append(failed, w.name)
		}
	}
	if err := writeJSON(out, all); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", out)
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

func readJSON(path string, v any) error {
	enc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(enc, v)
}

// commit names the checkout's commit, or "unknown" outside a git
// repository (the benchmark driver's checkouts are not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
