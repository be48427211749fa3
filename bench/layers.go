package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/events"
	"blueskies/internal/sched"
	"blueskies/internal/synth"
)

const (
	// layerScale is the corpus of the layer pass: the one three of the
	// four workloads run at.
	layerScale      = 400
	layerQuickScale = 3000
	// lagRate paces the open-loop sub-run, in records per second —
	// about a fifth of what the stream path sustains in catch-up mode
	// on the reference box, so a backlog that grows is a defect, not
	// saturation.
	lagRate = 200_000
	// lagSnapshotEvery is denser than bskyanalyze's default so that one
	// paced replay yields enough snapshots to speak of a tail.
	lagSnapshotEvery = 20_000
	// lagSeconds is what the sub-run takes at layerScale, set aside
	// when the rounds are fitted into the run's time.
	lagSeconds = 3
)

// layerPass times every layer from outside, one call at a time: each
// round runs every stage once over the same corpus, and a metric is
// the median of its stage over the rounds.
type layerPass struct {
	tr      *tracer
	samples map[string][]float64
	outs    []outcome
	round   int
	parent  int
}

func (lp *layerPass) add(name string, v float64) {
	lp.samples[name] = append(lp.samples[name], v)
}

// stage runs fn as one span named key, records its wall time as
// <key>_s and returns what it cost.
func (lp *layerPass) stage(key string, fn func() error) (cost, error) {
	id := lp.tr.start(key, lp.parent, lp.round)
	c, err := measure(fn)
	lp.tr.end(id)
	if err != nil {
		return c, fmt.Errorf("%s: %w", key, err)
	}
	lp.add(key+"_s", c.Wall.Seconds())
	return c, nil
}

// check records one reference comparison of the pass.
func (lp *layerPass) check(what string, ok bool) {
	o := outcome{Mismatch: !ok}
	if !ok {
		o.Err = fmt.Errorf("layer pass: %s differs from the reference", what)
	}
	lp.outs = append(lp.outs, o)
}

// runLayerPass runs rounds until deadline (at least minRounds), then
// the open-loop lag sub-run, and returns every layer metric.
func runLayerPass(tr *tracer, seed int64, quick bool, root string, deadline time.Time) (map[string]summary, []outcome, error) {
	scale, minRounds := layerScale, 3
	if quick {
		scale, minRounds = layerQuickScale, 1
	}
	cfg := synth.Config{Scale: scale, Seed: seed}
	dir, err := os.MkdirTemp(root, "layers-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cs, err := buildCorpus(cfg, filepath.Join(dir, "store"))
	if err != nil {
		return nil, nil, err
	}
	cs.parts = nil // every round generates its own

	// The serialized level-one state of each partition, made once: the
	// marshal and unmarshal stages time the codec alone.
	blobs := make([][]byte, partitions)
	for k := range blobs {
		data, err := os.ReadFile(storeFile(cs.storeDir, k))
		if err != nil {
			return nil, nil, err
		}
		if blobs[k], err = analysis.NewFullEngine().Workers(1).Snapshot(readerSource(data, cs.manifest.Partitions[k])); err != nil {
			return nil, nil, err
		}
	}

	lp := &layerPass{tr: tr, samples: make(map[string][]float64)}
	for lp.round = 0; lp.round < minRounds || (!quick && time.Now().Before(deadline)); lp.round++ {
		lp.parent = tr.start("round", noSpan, lp.round)
		err := lp.runRound(cs, blobs)
		tr.end(lp.parent)
		if err != nil {
			return nil, lp.outs, err
		}
	}
	lp.parent = noSpan
	if err := lp.streamLag(cfg); err != nil {
		return nil, lp.outs, err
	}

	out := make(map[string]summary, len(lp.samples))
	for name, xs := range lp.samples {
		out[name] = summarize(xs)
	}
	// The stages of the out-of-core read path against the run they are
	// stages of. A ratio of medians: each round's own ratio would carry
	// the noise of six single measurements.
	var stages float64
	for _, name := range []string{"core.file_read_s", "core.decode_s", "analysis.level_one_self_s", "analysis.level_two_render_s", "analysis.render_text_s"} {
		stages += out[name].Median
	}
	out["trace.reconcile_ratio"] = summary{Median: stages / out["disk.run_all_w1_s"].Median}
	return out, lp.outs, nil
}

func readerSource(data []byte, info core.PartitionInfo) *analysis.ReaderSource {
	return &analysis.ReaderSource{
		Open: func() (*core.PartitionReader, error) {
			return core.NewPartitionReader(bytes.NewReader(data))
		},
		Base:    info.Base,
		Records: &info.Records,
		Name:    fmt.Sprintf("partition %d", info.Index),
	}
}

// runRound runs every stage once. The first group runs with one
// processor: it is the single-threaded baseline, and the only setting
// in which the stages' times can be expected to add up to the wall of
// the out-of-core run they are stages of. The second group — the
// scheduler and the live stream, which are concurrent by design — runs
// with the processors the workloads have.
func (lp *layerPass) runRound(cs *corpusState, blobs [][]byte) error {
	procs := runtime.GOMAXPROCS(1)
	parts, m, err := lp.serialStages(cs, blobs)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	return lp.concurrentStages(cs, parts, m)
}

func (lp *layerPass) serialStages(cs *corpusState, blobs [][]byte) ([]*core.Dataset, *core.Manifest, error) {
	records := float64(cs.records)
	fail := func(err error) ([]*core.Dataset, *core.Manifest, error) { return nil, nil, err }

	// synth
	var parts []*core.Dataset
	var m *core.Manifest
	c, err := lp.stage("synth.generate", func() error {
		parts, m = synth.GeneratePartitioned(cs.cfg, partitions)
		return nil
	})
	if err != nil {
		return fail(err)
	}
	lp.add("synth.generate_records_per_s", records/c.Wall.Seconds())
	lp.add("synth.generate_alloc_bytes_per_record", float64(c.AllocBytes)/records)

	// core (store)
	c, err = lp.stage("core.encode", func() error { return core.WriteCorpus(cs.storeDir, parts, m) })
	if err != nil {
		return fail(err)
	}
	data := make([][]byte, partitions)
	var storeBytes float64
	if _, err = lp.stage("core.file_read", func() error {
		for k := range data {
			var err error
			if data[k], err = os.ReadFile(storeFile(cs.storeDir, k)); err != nil {
				return err
			}
			storeBytes += float64(len(data[k]))
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	lp.add("core.encode_mb_per_s", storeBytes/(1<<20)/c.Wall.Seconds())
	lp.add("core.store_bytes_per_record", storeBytes/records)

	blocks, decoded := 0, 0
	c, err = lp.stage("core.decode", func() error {
		for k := range data {
			pr, err := core.NewPartitionReader(bytes.NewReader(data[k]))
			if err != nil {
				return err
			}
			for {
				b, _, err := pr.NextDict()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				blocks++
				decoded += b.Len()
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	lp.check("decoded record count", decoded == cs.records)
	lp.add("core.decode_mb_per_s", storeBytes/(1<<20)/c.Wall.Seconds())
	lp.add("core.decode_allocs_per_record", float64(c.Mallocs)/records)
	lp.add("core.decode_alloc_bytes_per_record", float64(c.AllocBytes)/records)
	lp.add("core.blocks_decoded", float64(blocks))
	decodeS := c.Wall.Seconds()

	// analysis: level one = decode + dictionary fuse/intern + accumulate
	// + the merge of one partition's shards.
	c, err = lp.stage("analysis.level_one", func() error {
		for k := range data {
			if _, _, _, err := analysis.NewFullEngine().Workers(1).RunLevelOne(readerSource(data[k], m.Partitions[k])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	levelOneSelf := c.Wall.Seconds() - decodeS
	lp.add("analysis.level_one_self_s", levelOneSelf)
	lp.add("analysis.level_one_allocs_per_record", float64(c.Mallocs)/records)

	eng := analysis.NewFullEngine().Workers(1)
	states := make([]analysis.Source, partitions)
	if _, err = lp.stage("analysis.state_unmarshal", func() error {
		for k := range blobs {
			var err error
			if states[k], err = eng.RestoreState(blobs[k]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	stateBytes := 0
	if _, err = lp.stage("analysis.state_marshal", func() error {
		for _, st := range states {
			blob, err := eng.Snapshot(st)
			if err != nil {
				return err
			}
			stateBytes += len(blob)
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	lp.add("analysis.state_bytes", float64(stateBytes))

	var reports []*analysis.Report
	_, err = lp.stage("analysis.level_two_render", func() error {
		var err error
		reports, err = eng.RunSource(&analysis.MultiSource{Sources: states, Manifest: m})
		return err
	})
	if err != nil {
		return fail(err)
	}
	var text string
	_, err = lp.stage("analysis.render_text", func() error {
		text = analysis.RenderText(analysis.Canonicalize(reports))
		return nil
	})
	if err != nil {
		return fail(err)
	}
	lp.check("tables folded from restored states", text == cs.reference)

	c, err = lp.stage("analysis.mem_batch", func() error {
		_, err := analysis.RunAllPartitioned(parts, m, 1)
		return err
	})
	if err != nil {
		return fail(err)
	}
	lp.add("analysis.mem_batch_records_per_s", records/c.Wall.Seconds())

	// The stages above are the out-of-core run taken apart; this is the
	// run itself, with the same single worker.
	_, err = lp.stage("disk.run_all_w1", func() error {
		t, err := diskTables(nil, noSpan, 0, cs.storeDir, 1)
		text = t
		return err
	})
	if err != nil {
		return fail(err)
	}
	lp.check("single-worker disk tables", text == cs.reference)

	// core (wire)
	var shipIn, shipOut float64
	if _, err = lp.stage("core.ship_compress", func() error {
		for k := range data {
			out, err := core.CompressPartitionBlocks(data[k])
			if err != nil {
				return err
			}
			shipIn += float64(len(data[k]))
			shipOut += float64(len(out))
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	lp.add("core.ship_ratio", shipOut/shipIn)

	var frames [][]byte
	if _, err = lp.stage("synth.replay_emit", func() error {
		for _, p := range parts {
			f, err := replayFrames(p)
			if err != nil {
				return err
			}
			frames = append(frames, f...)
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	lp.add("synth.replay_frames", float64(len(frames)))
	var frameBytes float64
	for _, f := range frames {
		frameBytes += float64(len(f))
	}
	lp.add("core.frame_bytes_per_record", frameBytes/records)

	evs := make([]any, len(frames))
	blks := make([]*core.RecordBlock, len(frames))
	if _, err = lp.stage("core.frame_decode", func() error {
		for i, f := range frames {
			ev, err := events.Decode(f)
			if err != nil {
				return err
			}
			evs[i] = ev
			if blks[i], _, err = core.DecodeStreamEvent(ev); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	if _, err = lp.stage("core.frame_encode", func() error {
		for i, ev := range evs {
			// Record blocks go back through BlockEvent; label frames and
			// end-of-stream markers, which it does not build, re-encode
			// the decoded event.
			if b := blks[i]; b != nil && len(b.Labels) == 0 {
				sim, err := core.BlockEvent(b)
				if err != nil {
					return err
				}
				ev = sim
			}
			if _, err := events.Encode(ev); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	blks = nil

	// events
	c, err = lp.stage("events.emit", func() error {
		seq := events.NewSequencer(0, 0)
		for _, ev := range evs {
			if _, err := seq.Emit(func(int64) any { return ev }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	lp.add("events.emit_s_per_frame", c.Wall.Seconds()/float64(len(evs)))
	return parts, m, nil
}

func (lp *layerPass) concurrentStages(cs *corpusState, parts []*core.Dataset, m *core.Manifest) error {
	var text string
	local, err := lp.stage("disk.run_all", func() error {
		t, err := diskTables(nil, noSpan, 0, cs.storeDir, 0)
		text = t
		return err
	})
	if err != nil {
		return err
	}
	lp.check("disk tables", text == cs.reference)

	// sched
	c, err := core.OpenCorpus(cs.storeDir)
	if err != nil {
		return err
	}
	var times workerTimes
	var res remoteResult
	if _, err := lp.stage("sched.rerun", func() error {
		var err error
		res, err = remote(lp.tr, lp.round, c, func(lb *sched.Loopback, parent *atomic.Int64) sched.Worker {
			return &timedWorker{Loopback: lb, tr: lp.tr, parent: parent, round: lp.round, times: &times}
		})
		return err
	}); err != nil {
		return err
	}
	lp.check("remote cold tables", res.cold.text == cs.reference)
	lp.check("remote warm tables", res.warm.text == cs.reference)
	lp.add("sched.cold_wall_s", res.cold.wall.Seconds())
	lp.add("sched.warm_wall_s", res.warm.wall.Seconds())
	lp.add("sched.cold_shipped_bytes", float64(res.cold.shipped))
	lp.add("sched.warm_shipped_bytes", float64(res.warm.shipped))
	lp.add("sched.cache_hits", float64(res.cold.cacheHits+res.warm.cacheHits))
	lp.add("sched.cache_misses", float64(res.cold.cacheMisses+res.warm.cacheMisses))
	lp.add("sched.prefetches", float64(res.cold.prefetches+res.warm.prefetches))
	lp.add("sched.steals", float64(res.cold.steals+res.warm.steals))
	lp.add("sched.speculations", float64(res.cold.speculations+res.warm.speculations))
	lp.add("sched.local_evals", float64(res.cold.localEvals+res.warm.localEvals))
	lp.add("sched.worker_eval_s", time.Duration(times.evalNS.Load()).Seconds())
	lp.add("sched.worker_put_s", time.Duration(times.putNS.Load()).Seconds())
	lp.add("sched.useful_eval_ratio", float64(res.cold.evals+res.warm.evals)/float64(max(times.evalCalls.Load(), 1)))
	lp.add("sched.overhead_ratio", res.cold.wall.Seconds()/local.Wall.Seconds())

	// The live stream, with the sequencer backlogs sampled after every
	// emitted frame.
	round := *cs
	round.parts, round.manifest = parts, m
	var fr followResult
	if _, err := lp.stage("stream.follow", func() error {
		var err error
		fr, err = follow(lp.tr, lp.round, &round, true)
		return err
	}); err != nil {
		return err
	}
	lp.check("followed stream's final tables", fr.text == cs.reference)
	lp.add("events.backlog_high_water_frames", float64(fr.backlogHigh))
	lp.add("analysis.snapshots_per_iter", float64(fr.snapshots))
	return nil
}

// workerTimes totals what the scheduler's workers spent per call kind.
type workerTimes struct{ evalNS, putNS, evalCalls atomic.Int64 }

// timedWorker stands between the scheduler and a loopback worker and
// times the calls that cross. Embedding forwards the worker's optional
// capabilities (block formats, cache info) untouched.
type timedWorker struct {
	*sched.Loopback
	tr     *tracer
	parent *atomic.Int64
	round  int
	times  *workerTimes
}

func (w *timedWorker) Eval(ctx context.Context, req []byte) ([]byte, error) {
	id := w.tr.start("worker.Eval", int(w.parent.Load()), w.round)
	t0 := time.Now()
	resp, err := w.Loopback.Eval(ctx, req)
	w.times.evalNS.Add(time.Since(t0).Nanoseconds())
	w.times.evalCalls.Add(1)
	w.tr.end(id)
	return resp, err
}

func (w *timedWorker) PutBlocks(ctx context.Context, key string, blocks []byte) error {
	id := w.tr.start("worker.PutBlocks", int(w.parent.Load()), w.round)
	t0 := time.Now()
	err := w.Loopback.PutBlocks(ctx, key, blocks)
	w.times.putNS.Add(time.Since(t0).Nanoseconds())
	w.tr.end(id)
	return err
}

// streamLag is the open-loop sub-run: one corpus replayed at a fixed
// record rate, firehose and labeler multiplexed onto one sequencer so
// that frame order is total and "the last frame a snapshot covers" is
// well defined. A frame is due when the records it carries exist at
// that rate; lag is measured from due times, so a generator that falls
// behind does not hide the wait it causes.
func (lp *layerPass) streamLag(cfg synth.Config) error {
	root := lp.tr.start("stream.lag", noSpan, 0)
	defer lp.tr.end(root)
	parts, m := synth.GeneratePartitioned(cfg, 1)
	p := parts[0]
	refReports, err := analysis.RunAllPartitioned(parts, m, 0)
	if err != nil {
		return err
	}
	reference := analysis.RenderText(refReports)

	// The schedule: replay once into a sequencer nobody consumes and
	// read each frame's record count back.
	dry := events.NewSequencer(0, 0)
	if err := synth.Replay(p, dry, dry, 0); err != nil {
		return err
	}
	frames, _ := dry.Backfill(0)
	cum := make([]int, len(frames))           // records through frame i
	due := make([]time.Duration, len(frames)) // since the replay's start
	total := 0
	for i, f := range frames {
		ev, err := events.Decode(f)
		if err != nil {
			return err
		}
		b, _, err := core.DecodeStreamEvent(ev)
		if err != nil {
			return err
		}
		if b != nil {
			total += b.Len()
		}
		cum[i] = total
		due[i] = time.Duration(float64(total) / lagRate * float64(time.Second))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seq := events.NewSequencer(0, 0)
	blocks, errs := core.DrainSequencers(ctx, seq)
	var late, lags []float64
	emitted := 0
	type replayEnd struct {
		err     error
		backlog int
	}
	done := make(chan replayEnd, 1) // one send by the replay goroutine
	start := time.Now()
	go func() {
		err := synth.ReplayWithHooks(p, seq, seq, synth.ReplayHooks{OnEmit: func(int, int64) {
			if emitted < len(due) {
				late = append(late, float64(time.Since(start)-due[emitted])/float64(time.Millisecond))
			}
			emitted++
			if emitted < len(due) {
				time.Sleep(time.Until(start.Add(due[emitted])))
			}
		}})
		done <- replayEnd{err, seq.BacklogLen()}
	}()
	src := &analysis.StreamSource{
		Blocks:        blocks,
		SnapshotEvery: lagSnapshotEvery,
		OnSnapshot: func(records int, reports []*analysis.Report) {
			id := lp.tr.start("snapshot.RenderText", root, 0)
			_ = analysis.RenderText(analysis.Canonicalize(reports))
			lp.tr.end(id)
			i := 0
			for i < len(cum)-1 && cum[i] < records {
				i++
			}
			lags = append(lags, float64(time.Since(start)-due[i])/float64(time.Millisecond))
		},
	}
	reports, err := analysis.NewFullEngine().Workers(0).RunSource(src)
	if err != nil {
		cancel()
	}
	end := <-done
	for serr := range errs {
		if serr != nil && err == nil {
			err = serr
		}
	}
	if err == nil {
		err = end.err
	}
	if err != nil {
		return fmt.Errorf("stream.lag: %w", err)
	}
	lp.check("paced stream's final tables", analysis.RenderText(analysis.Canonicalize(reports)) == reference)
	lp.check("paced replay's frame count", emitted == len(frames))
	lp.add("stream.snapshot_lag_ms_p50", rank(lags, 0.5))
	lp.add("stream.snapshot_lag_ms_p90", rank(lags, 0.9))
	lp.add("stream.generator_late_ms_p90", rank(late, 0.9))
	lp.add("stream.backlog_end_frames", float64(end.backlog))
	return nil
}
