package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/events"
	"blueskies/internal/sched"
	"blueskies/internal/synth"
)

const (
	// partitions is the partition count of every corpus: the shape of
	// `bskysim -spill -partitions 4` and `bskyanalyze -follow -partitions 4`.
	partitions = 4
	// snapshotEvery is bskyanalyze's -snapshot-every default.
	snapshotEvery = 100_000
	// loopbackWorkers is the remote pool: with the scheduler's own
	// goroutine idle while they evaluate, two workers keep the runnable
	// threads at the reference box's two cores.
	loopbackWorkers = 2
)

// workloadSpec names a workload and the corpus scale it runs at.
// The names are fixed: later issues cite them.
type workloadSpec struct {
	name       string
	scale      int // synth.Config.Scale; larger is a smaller corpus
	quickScale int
	open       func(cs *corpusState, root string) (instance, error)
}

var workloads = []workloadSpec{
	{"disk_batch", 200, 3000, openDiskBatch},
	{"spill_write", 400, 3000, openSpillWrite},
	{"stream_follow", 400, 3000, openStreamFollow},
	{"remote_rerun", 400, 3000, openRemoteRerun},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// corpusState is one generated corpus with everything the checks need:
// the reference tables, computed through the in-memory batch path (an
// implementation independent of every path the workloads time), and a
// spilled store with its content hashes.
type corpusState struct {
	cfg       synth.Config
	parts     []*core.Dataset
	manifest  *core.Manifest
	records   int
	reference string

	storeDir   string
	storeBytes int64 // block files + manifest sidecar
	hashes     []string
}

// buildCorpus generates the corpus for cfg, computes its reference
// tables and spills it to dir.
func buildCorpus(cfg synth.Config, dir string) (*corpusState, error) {
	parts, m := synth.GeneratePartitioned(cfg, partitions)
	reports, err := analysis.RunAllPartitioned(parts, m, 0)
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	cs := &corpusState{
		cfg:       cfg,
		parts:     parts,
		manifest:  m,
		records:   m.Totals().Total(),
		reference: analysis.RenderText(reports),
		storeDir:  dir,
	}
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		return nil, fmt.Errorf("spill corpus: %w", err)
	}
	if cs.storeBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	for _, p := range m.Partitions {
		cs.hashes = append(cs.hashes, p.ContentHash)
	}
	return cs, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// iteration is one operation's measured cost and what its check found.
type iteration struct {
	cost    cost
	records int   // records evaluated (or written) by the operation
	ioBytes int64 // bytes that crossed the workload's boundary
	outcome outcome
}

// instance is a set-up workload. iterate runs one operation inside a
// measured region and checks its output outside it; a nil tracer runs
// it untraced. final runs the checks that need the loop to be over,
// close removes what set-up and the iterations left on disk.
type instance interface {
	iterate(tr *tracer, iter int) iteration
	final() []outcome
	close()
}

// noTail is embedded by the workloads that have nothing to check after
// the loop and leave nothing behind.
type noTail struct{}

func (noTail) final() []outcome { return nil }
func (noTail) close()           {}

// traced runs fn inside a span and passes its result through.
func traced[T any](tr *tracer, name string, parent, iter int, fn func() (T, error)) (T, error) {
	id := tr.start(name, parent, iter)
	v, err := fn()
	tr.end(id)
	return v, err
}

// ---- disk_batch ----

// diskBatch is `bskyanalyze -corpus DIR`: open the store, evaluate it
// out of core, render the tables.
type diskBatch struct {
	noTail
	cs *corpusState
}

func openDiskBatch(cs *corpusState, _ string) (instance, error) {
	cs.parts = nil // the store is the input; free the heap copy
	return &diskBatch{cs: cs}, nil
}

func (w *diskBatch) iterate(tr *tracer, iter int) iteration {
	var text string
	c, err := measure(func() error {
		root := tr.start("disk_batch", noSpan, iter)
		defer tr.end(root)
		var err error
		text, err = diskTables(tr, root, iter, w.cs.storeDir, 0)
		return err
	})
	return iteration{
		cost:    c,
		records: w.cs.records,
		ioBytes: w.cs.storeBytes,
		outcome: outcome{Err: err, Mismatch: err == nil && text != w.cs.reference},
	}
}

// diskTables evaluates the store at dir out of core and renders it.
func diskTables(tr *tracer, parent, iter int, dir string, workers int) (string, error) {
	c, err := traced(tr, "core.OpenCorpus", parent, iter, func() (*core.Corpus, error) {
		return core.OpenCorpus(dir)
	})
	if err != nil {
		return "", err
	}
	reports, err := traced(tr, "analysis.RunAllDisk", parent, iter, func() ([]*analysis.Report, error) {
		return analysis.RunAllDisk(c, workers)
	})
	if err != nil {
		return "", err
	}
	return traced(tr, "analysis.RenderText", parent, iter, func() (string, error) {
		return analysis.RenderText(reports), nil
	})
}

// ---- spill_write ----

// spillWrite is `bskysim -spill DIR -partitions 4`: generate and write
// the store in one bounded-memory pass.
type spillWrite struct {
	cs   *corpusState
	root string
	last string // the newest spill, kept for the read-back in final
}

func openSpillWrite(cs *corpusState, root string) (instance, error) {
	cs.parts = nil
	// The reference store served its purpose once its hashes were read.
	if err := os.RemoveAll(cs.storeDir); err != nil {
		return nil, err
	}
	return &spillWrite{cs: cs, root: root}, nil
}

func (w *spillWrite) iterate(tr *tracer, iter int) iteration {
	w.close() // the previous spill; removal is not timed
	it := iteration{records: w.cs.records}
	dir, err := os.MkdirTemp(w.root, "spill-")
	if err != nil {
		it.outcome.Err = err
		return it
	}
	w.last = dir
	var m *core.Manifest
	it.cost, it.outcome.Err = measure(func() error {
		var err error
		m, err = traced(tr, "synth.GeneratePartitionedTo", noSpan, iter, func() (*core.Manifest, error) {
			return synth.GeneratePartitionedTo(w.cs.cfg, partitions, dir, 0)
		})
		return err
	})
	if it.outcome.Err != nil {
		return it
	}
	if it.ioBytes, it.outcome.Err = dirBytes(dir); it.outcome.Err != nil {
		return it
	}
	it.outcome.Mismatch = len(m.Partitions) != len(w.cs.hashes)
	for k := 0; !it.outcome.Mismatch && k < len(m.Partitions); k++ {
		it.outcome.Mismatch = m.Partitions[k].ContentHash != w.cs.hashes[k]
	}
	return it
}

// final reads the last spill back through the out-of-core path: equal
// hashes say the bytes repeat, this says they are a readable corpus.
func (w *spillWrite) final() []outcome {
	if w.last == "" {
		return nil
	}
	text, err := diskTables(nil, noSpan, 0, w.last, 0)
	return []outcome{{Err: err, Mismatch: err == nil && text != w.cs.reference}}
}

func (w *spillWrite) close() {
	if w.last != "" {
		os.RemoveAll(w.last)
		w.last = ""
	}
}

// ---- stream_follow ----

// streamFollow is `bskyanalyze -follow -partitions 4`.
type streamFollow struct {
	noTail
	cs         *corpusState
	frameBytes int64
}

func openStreamFollow(cs *corpusState, _ string) (instance, error) {
	if err := os.RemoveAll(cs.storeDir); err != nil {
		return nil, err
	}
	// The bytes that cross this workload's boundary are the encoded
	// frames; count them once by replaying into sequencers nobody
	// consumes, which retain every frame.
	var total int64
	for _, p := range cs.parts {
		frames, err := replayFrames(p)
		if err != nil {
			return nil, err
		}
		for _, f := range frames {
			total += int64(len(f))
		}
	}
	return &streamFollow{cs: cs, frameBytes: total}, nil
}

// replayFrames replays one partition into consumer-less sequencers and
// returns every encoded frame, firehose first.
func replayFrames(p *core.Dataset) ([][]byte, error) {
	fire, labeler := events.NewSequencer(0, 0), events.NewSequencer(0, 0)
	if err := synth.Replay(p, fire, labeler, 0); err != nil {
		return nil, err
	}
	ff, _ := fire.Backfill(0)
	lf, _ := labeler.Backfill(0)
	return append(ff, lf...), nil
}

func (w *streamFollow) iterate(tr *tracer, iter int) iteration {
	var res followResult
	c, err := measure(func() error {
		var err error
		res, err = follow(tr, iter, w.cs, false)
		return err
	})
	lo, hi := expectedSnapshots(w.cs.records)
	return iteration{
		cost:    c,
		records: w.cs.records,
		ioBytes: w.frameBytes,
		outcome: outcome{Err: err, Mismatch: err == nil &&
			(res.text != w.cs.reference || res.snapshots < lo || res.snapshots > hi)},
	}
}

// expectedSnapshots bounds the mid-stream snapshot count for a corpus
// of the given size. A round opens when snapshotEvery records arrived
// since the last one; the records the other partitions apply before
// they notice the pause are not carried over, so a round can cover up
// to one replay frame per partition more than snapshotEvery.
func expectedSnapshots(records int) (lo, hi int) {
	return records / (snapshotEvery + partitions*synth.ReplayBlockSize), records / snapshotEvery
}

type followResult struct {
	text        string
	snapshots   int
	backlogHigh int // peak frames retained by one partition's sequencers; sampled only on request
}

// follow replays every partition through its own firehose + labeler
// sequencer pair, each replay on its own goroutine, and drives the
// engine from the draining block channels with merged stop-the-world
// snapshots — the body of bskyanalyze's runFollow. Timed by the
// caller from before the first replay starts to the rendered final
// tables. sampleBacklog adds a replay hook that reads the sequencer
// backlogs after every frame.
func follow(tr *tracer, iter int, cs *corpusState, sampleBacklog bool) (followResult, error) {
	root := tr.start("stream_follow", noSpan, iter)
	defer tr.end(root)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var res followResult
	var backlogHigh atomic.Int64
	n := len(cs.parts)
	srcs := make([]analysis.Source, n)
	errChans := make([]<-chan error, n)
	replayErr := make(chan error, n) // one send per replay goroutine
	for k, p := range cs.parts {
		fire, labeler := events.NewSequencer(0, 0), events.NewSequencer(0, 0)
		blocks, errs := core.DrainSequencers(ctx, fire, labeler)
		go func() {
			id := tr.start("synth.Replay", root, iter)
			defer tr.end(id)
			if !sampleBacklog {
				replayErr <- synth.Replay(p, fire, labeler, 0)
				return
			}
			replayErr <- synth.ReplayWithHooks(p, fire, labeler, synth.ReplayHooks{OnEmit: func(int, int64) {
				held := int64(fire.BacklogLen() + labeler.BacklogLen())
				for {
					old := backlogHigh.Load()
					if held <= old || backlogHigh.CompareAndSwap(old, held) {
						return
					}
				}
			}})
		}()
		srcs[k] = &analysis.StreamSource{Blocks: blocks, Base: cs.manifest.Partitions[k].Base}
		errChans[k] = errs
	}
	src := &analysis.MultiSource{
		Sources:       srcs,
		Manifest:      cs.manifest,
		SnapshotEvery: snapshotEvery,
		// Snapshots are serialized by the coordinator, so the counter
		// needs no lock; the run's return orders it before the reads
		// below. Rendering is what -follow does with a snapshot.
		OnSnapshot: func(_ int, reports []*analysis.Report) {
			id := tr.start("snapshot.RenderText", root, iter)
			_ = analysis.RenderText(analysis.Canonicalize(reports))
			tr.end(id)
			res.snapshots++
		},
	}
	reports, err := traced(tr, "analysis.RunSource", root, iter, func() ([]*analysis.Report, error) {
		return analysis.NewFullEngine().Workers(0).RunSource(src)
	})
	if err != nil {
		// Unblock the replays' consumers so their goroutines end.
		cancel()
	}
	for range cs.parts {
		if rerr := <-replayErr; rerr != nil && err == nil {
			err = rerr
		}
	}
	for _, errs := range errChans {
		for serr := range errs {
			if serr != nil && err == nil {
				err = serr
			}
		}
	}
	if err != nil {
		return res, err
	}
	res.text, _ = traced(tr, "analysis.RenderText", root, iter, func() (string, error) {
		return analysis.RenderText(analysis.Canonicalize(reports)), nil
	})
	res.backlogHigh = int(backlogHigh.Load())
	return res, nil
}

// ---- remote_rerun ----

// remoteRerun is `bskyanalyze -corpus DIR -workers-at loopback:2
// -ship-blocks` run twice against the same workers: analyse, then
// re-analyse with their block caches warm.
type remoteRerun struct {
	noTail
	cs     *corpusState
	corpus *core.Corpus
}

func openRemoteRerun(cs *corpusState, _ string) (instance, error) {
	cs.parts = nil
	c, err := core.OpenCorpus(cs.storeDir)
	if err != nil {
		return nil, err
	}
	return &remoteRerun{cs: cs, corpus: c}, nil
}

func (w *remoteRerun) iterate(tr *tracer, iter int) iteration {
	var res remoteResult
	c, err := measure(func() error {
		var err error
		res, err = remote(tr, iter, w.corpus, nil)
		return err
	})
	return iteration{
		cost:    c,
		records: 2 * w.cs.records, // evaluated cold, then again warm
		ioBytes: res.cold.shipped + res.warm.shipped,
		outcome: outcome{
			Err:        err,
			Mismatch:   err == nil && (res.cold.text != w.cs.reference || res.warm.text != w.cs.reference),
			LocalEvals: res.cold.localEvals + res.warm.localEvals,
		},
	}
}

// remoteHalf is one scheduler run's tables, wall time and counters.
type remoteHalf struct {
	text string
	wall time.Duration

	shipped, evals, localEvals         int64
	cacheHits, cacheMisses, prefetches int64
	steals, speculations               int64
}

type remoteResult struct{ cold, warm remoteHalf }

// remote runs one cold and one warm scheduler run over a fresh pool of
// loopback workers with empty in-memory block caches. wrap, when set,
// stands between the scheduler and each worker (the layer pass's
// timing wrapper).
func remote(tr *tracer, iter int, c *core.Corpus, wrap func(lb *sched.Loopback, parent *atomic.Int64) sched.Worker) (remoteResult, error) {
	root := tr.start("remote_rerun", noSpan, iter)
	defer tr.end(root)
	var res remoteResult
	var half atomic.Int64 // the span the workers' calls are children of
	pool := make([]sched.Worker, loopbackWorkers)
	for i := range pool {
		cache, err := sched.NewBlockCache("", 0)
		if err != nil {
			return res, err
		}
		lb := &sched.Loopback{Server: &sched.Server{Cache: cache}, Label: fmt.Sprintf("loopback-%d", i)}
		pool[i] = lb
		if wrap != nil {
			pool[i] = wrap(lb, &half)
		}
	}
	run := func(name string) (remoteHalf, error) {
		id := tr.start(name, root, iter)
		defer tr.end(id)
		half.Store(int64(id))
		s := sched.New(c, pool...)
		s.ShipBlocks = true
		s.Logf = func(string, ...any) {}
		start := time.Now()
		reports, err := s.RunAll(0)
		if err != nil {
			return remoteHalf{}, err
		}
		text := analysis.RenderText(reports)
		st := &s.Stats
		return remoteHalf{
			text: text, wall: time.Since(start),
			shipped: st.ShippedBytes.Load(), evals: st.Evals.Load(), localEvals: st.LocalEvals.Load(),
			cacheHits: st.CacheHits.Load(), cacheMisses: st.CacheMisses.Load(), prefetches: st.Prefetches.Load(),
			steals: st.Steals.Load(), speculations: st.Speculations.Load(),
		}, nil
	}
	var err error
	if res.cold, err = run("sched.RunAll/cold"); err != nil {
		return res, fmt.Errorf("cold run: %w", err)
	}
	if res.warm, err = run("sched.RunAll/warm"); err != nil {
		return res, fmt.Errorf("warm run: %w", err)
	}
	return res, nil
}

// storeFile is the path of partition k's block file in dir.
func storeFile(dir string, k int) string { return filepath.Join(dir, core.PartitionFileName(k)) }
