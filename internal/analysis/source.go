package analysis

import (
	"runtime"
	"sync"

	"blueskies/internal/core"
)

// RenderFunc renders a full report set from merged accumulator state;
// sources use it to emit mid-run snapshots.
type RenderFunc func(w *World, merged []Shard, t *LabelTables) []*Report

// Source is one corpus traversal: it allocates per-worker shard state
// for the registered accumulators, streams every needed record block
// through it, and returns the merged per-accumulator state with the
// render context and global label intern tables (nil when labels were
// not consumed).
//
// workers ≤ 0 lets the source autotune. render, when non-nil, lets
// the source emit snapshots mid-run (StreamSource does; DatasetSource
// ignores it).
type Source interface {
	Run(accs []Accumulator, workers int, render RenderFunc) (*World, []Shard, *LabelTables, error)
}

// OffloadedSource marks a Source whose Run performs its traversal on
// another machine (a remote worker). MultiSource runs such partitions
// without claiming a local CPU slot, so remote fan-out is bounded by
// the fleet size, not by the scheduler's GOMAXPROCS.
type OffloadedSource interface {
	Source
	// Offloaded reports whether this run's heavy lifting happens
	// elsewhere.
	Offloaded() bool
}

// DatasetSource traverses a materialized core.Dataset, sharded across
// workers over contiguous index ranges — the batch execution mode.
type DatasetSource struct {
	ds *core.Dataset
	// base offsets every block's global start index — the partition's
	// position in a partitioned corpus (zero for a standalone dataset),
	// so index-dependent accumulator state (e.g. the weekly sampling of
	// Figures 1–2) is computed against corpus positions.
	base core.CollectionCounts
	// maxAuto caps the autotuned worker count (0 = GOMAXPROCS). A
	// partitioned run sets it so concurrently-traversing partitions
	// share the machine instead of each claiming every core.
	maxAuto int
}

// NewDatasetSource wraps a materialized dataset as a Source.
func NewDatasetSource(ds *core.Dataset) *DatasetSource { return &DatasetSource{ds: ds} }

// NewDatasetSourceAt wraps one partition of a partitioned corpus,
// feeding record blocks with global base indexes offset by the
// partition's manifest position.
func NewDatasetSourceAt(ds *core.Dataset, base core.CollectionCounts) *DatasetSource {
	return &DatasetSource{ds: ds, base: base}
}

// minRecordsPerWorker is the autotuning threshold: below it, an extra
// traversal worker costs more in merge/remap overhead than its share
// of the scan saves (a measured small-dataset regression).
const minRecordsPerWorker = 1 << 16

// autoWorkers picks the worker count from the number of records the
// registered accumulators will actually traverse, capped by
// GOMAXPROCS.
func autoWorkers(ds *core.Dataset, need Collection) int {
	total := 0
	if need&ColUsers != 0 {
		total += len(ds.Users)
	}
	if need&ColPosts != 0 {
		total += len(ds.Posts)
	}
	if need&ColDays != 0 {
		total += len(ds.Daily)
	}
	if need&ColLabels != 0 {
		total += len(ds.Labels)
	}
	if need&ColFeedGens != 0 {
		total += len(ds.FeedGens)
	}
	if need&ColDomains != 0 {
		total += len(ds.Domains)
	}
	if need&ColHandleUpdates != 0 {
		total += len(ds.HandleUpdates)
	}
	w := total / minRecordsPerWorker
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run implements Source with today's sharded traversal: contiguous
// index ranges per worker, per-worker intern tables folded in worker
// order, shard merge in worker order — byte-identical to a sequential
// scan at any worker count.
func (src *DatasetSource) Run(accs []Accumulator, workers int, _ RenderFunc) (*World, []Shard, *LabelTables, error) {
	ds := src.ds
	need := Collection(0)
	for _, a := range accs {
		need |= a.Needs()
	}
	w := workers
	if w <= 0 {
		w = autoWorkers(ds, need)
		if src.maxAuto > 0 && w > src.maxAuto {
			w = src.maxAuto
		}
	}
	world := NewWorld(ds)
	var didIdx map[string]int32
	if need&ColLabels != 0 {
		didIdx = ds.LabelerIndex()
	}

	shards := make([][]Shard, len(accs)) // [acc][worker]
	for ai, a := range accs {
		shards[ai] = make([]Shard, w)
		for wi := range shards[ai] {
			shards[ai][wi] = a.NewShard(world)
		}
	}
	tables := make([]*LabelTables, w)

	if w == 1 {
		tables[0] = feedRange(ds, src.base, accs, shardCol(shards, 0), 0, 1, didIdx)
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				tables[wi] = feedRange(ds, src.base, accs, shardCol(shards, wi), wi, w, didIdx)
			}(wi)
		}
		wg.Wait()
	}

	// Fold worker intern tables into the global id space. Worker 0's
	// table is extended in place; first-occurrence order across the
	// ordered workers matches a sequential scan exactly.
	var gt *LabelTables
	var mcs []*MergeCtx
	if need&ColLabels != 0 {
		gt = tables[0]
		mcs = make([]*MergeCtx, w)
		for wi := 1; wi < w; wi++ {
			mcs[wi] = remapTables(gt, tables[wi])
		}
		for wi := 1; wi < w; wi++ {
			mcs[wi].NumURIs = len(gt.URIs)
			mcs[wi].NumVals = len(gt.Vals)
		}
	}

	merged := make([]Shard, len(accs))
	for ai, a := range accs {
		merged[ai] = shards[ai][0]
		for wi := 1; wi < w; wi++ {
			var mc *MergeCtx
			if a.Needs()&ColLabels != 0 {
				mc = mcs[wi]
			}
			a.Merge(merged[ai], shards[ai][wi], mc)
		}
	}
	return world, merged, gt, nil
}

func shardCol(shards [][]Shard, wi int) []Shard {
	col := make([]Shard, len(shards))
	for ai := range shards {
		col[ai] = shards[ai][wi]
	}
	return col
}

func remapTables(dst, src *LabelTables) *MergeCtx {
	mc := &MergeCtx{
		URIRemap: make([]int32, len(src.URIs)),
		ValRemap: make([]int32, len(src.Vals)),
		SrcRemap: make([]int32, len(src.ExtraSrcs)),
	}
	for i, s := range src.URIs {
		mc.URIRemap[i] = dst.internURI(s)
	}
	for i, s := range src.Vals {
		mc.ValRemap[i] = dst.internVal(s)
	}
	for i, s := range src.ExtraSrcs {
		mc.SrcRemap[i] = dst.internExtraSrc(s)
	}
	return mc
}

// foldTables folds src's intern tables into dst, returning the global
// tables and the remapping for src's local ids. Unlike remapTables it
// tolerates the shapes zero-record partitions produce: a nil or empty
// src remaps as a no-op (empty remap slices — nothing holds its ids),
// and a nil dst adopts a fresh table so later partitions still fold
// into a well-defined global id space.
func foldTables(dst, src *LabelTables) (*LabelTables, *MergeCtx) {
	if dst == nil {
		dst = newLabelTables()
	}
	if src == nil {
		return dst, &MergeCtx{}
	}
	return dst, remapTables(dst, src)
}

// cut returns worker wi's contiguous slice bounds over n records.
func cut(n, wi, w int) (int, int) { return n * wi / w, n * (wi + 1) / w }

// feedRange streams worker wi's share of every needed collection
// through the given shards, block by block, and returns the worker's
// label intern tables (nil when labels are not consumed). off is the
// dataset's base offset within a partitioned corpus; block base
// indexes are global (offset + local index).
func feedRange(ds *core.Dataset, off core.CollectionCounts, accs []Accumulator, shards []Shard, wi, w int, didIdx map[string]int32) *LabelTables {
	need := Collection(0)
	for _, a := range accs {
		need |= a.Needs()
	}
	dispatch := func(col Collection, lo, hi int, f func(s Shard, lo, hi int)) {
		for b := lo; b < hi; b += blockSize {
			be := min(b+blockSize, hi)
			for ai, a := range accs {
				if a.Needs()&col != 0 {
					f(shards[ai], b, be)
				}
			}
		}
	}
	if need&ColUsers != 0 {
		lo, hi := cut(len(ds.Users), wi, w)
		dispatch(ColUsers, lo, hi, func(s Shard, b, e int) { s.Users(ds.Users[b:e], off.Users+b) })
	}
	if need&ColPosts != 0 {
		lo, hi := cut(len(ds.Posts), wi, w)
		dispatch(ColPosts, lo, hi, func(s Shard, b, e int) { s.Posts(ds.Posts[b:e], off.Posts+b) })
	}
	if need&ColDays != 0 {
		lo, hi := cut(len(ds.Daily), wi, w)
		dispatch(ColDays, lo, hi, func(s Shard, b, e int) { s.Days(ds.Daily[b:e], off.Days+b) })
	}
	var tables *LabelTables
	if need&ColLabels != 0 {
		tables = newLabelTables()
		lo, hi := cut(len(ds.Labels), wi, w)
		meta := make([]LabelMeta, 0, blockSize)
		for b := lo; b < hi; b += blockSize {
			be := min(b+blockSize, hi)
			chunk := LabelChunk{Labels: ds.Labels[b:be], Base: off.Labels + b}
			chunk.Meta = buildLabelMeta(ds.Labelers, chunk.Labels, meta[:0], tables, didIdx)
			chunk.NumURIs = len(tables.URIs)
			chunk.NumVals = len(tables.Vals)
			for ai, a := range accs {
				if a.Needs()&ColLabels != 0 {
					shards[ai].Labels(&chunk)
				}
			}
		}
	}
	if need&ColFeedGens != 0 {
		lo, hi := cut(len(ds.FeedGens), wi, w)
		dispatch(ColFeedGens, lo, hi, func(s Shard, b, e int) { s.FeedGens(ds.FeedGens[b:e], off.FeedGens+b) })
	}
	if need&ColDomains != 0 {
		lo, hi := cut(len(ds.Domains), wi, w)
		dispatch(ColDomains, lo, hi, func(s Shard, b, e int) { s.Domains(ds.Domains[b:e], off.Domains+b) })
	}
	if need&ColHandleUpdates != 0 {
		lo, hi := cut(len(ds.HandleUpdates), wi, w)
		dispatch(ColHandleUpdates, lo, hi, func(s Shard, b, e int) { s.HandleUpdates(ds.HandleUpdates[b:e], off.HandleUpdates+b) })
	}
	return tables
}

// buildLabelMeta computes the shared per-label metadata for one block.
// labelers is the announced population backing didIdx.
func buildLabelMeta(labelers []core.Labeler, ls []core.Label, meta []LabelMeta, t *LabelTables, didIdx map[string]int32) []LabelMeta {
	for i := range ls {
		l := &ls[i]
		m := LabelMeta{
			URIID:    t.internURI(l.URI),
			ValID:    t.internVal(l.Val),
			MonthIdx: int32(l.Applied.Year())*12 + int32(l.Applied.Month()) - 1,
		}
		if idx, ok := didIdx[l.Src]; ok {
			m.LabelerIdx = idx
			m.Official = labelers[idx].Official
		} else {
			m.LabelerIdx = t.internExtraSrc(l.Src)
		}
		if !l.Neg && l.FreshSubject && l.Kind == core.SubjectPost {
			m.FreshPost = true
			m.RTSec = l.ReactionTime().Seconds()
		}
		meta = append(meta, m)
	}
	return meta
}

// buildLabelMetaFused is buildLabelMeta for blocks decoded with a
// dictionary view: the label Src/Val/Kind columns arrive as ids into
// db.Dict, so each distinct string is hashed into the intern tables
// once per block (at its first referencing row) instead of once per
// record. Because intern ids are assigned in first-occurrence order
// and interning is idempotent, the resulting tables and metadata are
// byte-identical to the per-record path. URIs are not
// dictionary-interned (they are nearly all distinct) and stay
// per-record.
//
// db's id columns must be parallel to ls — the caller checks.
func buildLabelMetaFused(labelers []core.Labeler, ls []core.Label, db *core.DictBlock, meta []LabelMeta, t *LabelTables, didIdx map[string]int32) []LabelMeta {
	// Per-dict-id memos, filled lazily so table growth happens in
	// exactly the order the per-record path would produce. valIDs uses
	// -1 as "unseen" (interned val ids are ≥ 0); src ids can be
	// negative (extra-src space), so srcSeen carries that bit.
	valIDs := make([]int32, len(db.Dict))
	for i := range valIDs {
		valIDs[i] = -1
	}
	srcSeen := make([]bool, len(db.Dict))
	srcIdx := make([]int32, len(db.Dict))
	official := make([]bool, len(db.Dict))
	kindPost := make([]bool, len(db.Dict))
	for i, s := range db.Dict {
		kindPost[i] = s == string(core.SubjectPost)
	}
	for i := range ls {
		l := &ls[i]
		m := LabelMeta{
			URIID:    t.internURI(l.URI),
			MonthIdx: int32(l.Applied.Year())*12 + int32(l.Applied.Month()) - 1,
		}
		v := db.LabelVal[i]
		if valIDs[v] < 0 {
			valIDs[v] = t.internVal(db.Dict[v])
		}
		m.ValID = valIDs[v]
		s := db.LabelSrc[i]
		if !srcSeen[s] {
			srcSeen[s] = true
			if idx, ok := didIdx[db.Dict[s]]; ok {
				srcIdx[s] = idx
				official[s] = labelers[idx].Official
			} else {
				srcIdx[s] = t.internExtraSrc(db.Dict[s])
			}
		}
		m.LabelerIdx = srcIdx[s]
		m.Official = official[s]
		if !l.Neg && l.FreshSubject && kindPost[db.LabelKind[i]] {
			m.FreshPost = true
			m.RTSec = l.ReactionTime().Seconds()
		}
		meta = append(meta, m)
	}
	return meta
}
