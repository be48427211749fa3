package analysis

import (
	"runtime"
	"sync"

	"blueskies/internal/core"
)

// StreamSource feeds the engine's accumulators from a live record
// stream — crawl.Collector's multiplexed firehose/labeler subscriptions
// or a replayed sequencer backlog — instead of a materialized dataset.
// Only the accumulator state, the append-only intern tables, and the
// World's scalar facts are retained; record blocks are dropped as soon
// as every accumulator has seen them, so memory never holds a second
// copy of the corpus.
//
// Concurrency model: a batch run parallelizes over data (contiguous
// index ranges per worker); a stream cannot, because record ranges are
// only discovered as they arrive. StreamSource parallelizes over
// accumulators instead: the registered accumulators are partitioned
// into worker groups, each group consumes the block sequence in order
// on its own goroutine, and the feeder interns label metadata once
// before fan-out. Every accumulator therefore sees exactly the
// one-worker batch traversal of its collections, which is what makes
// the final snapshot byte-identical to RunAll at any worker count.
//
// Snapshot semantics: snapshots are stop-the-world — the feeder sends
// a barrier through every group channel, waits until all in-flight
// blocks are consumed, renders from the quiescent state, and resumes.
// Renders never mutate shard state, and the intern tables and DID
// index only grow, so a snapshot is a consistent prefix of the stream.
//
// The ingestion machinery lives in streamIngest so a partitioned run
// (MultiSource) can drive one ingest per partition stream and merge
// their quiescent states into corpus-wide snapshots.
type StreamSource struct {
	// Blocks is the record stream; closing it ends the run.
	Blocks <-chan core.RecordBlock
	// Base is this stream's partition offset within a partitioned
	// corpus: record blocks are fed with global base indexes
	// (offset + records seen so far). Zero for a standalone stream.
	Base core.CollectionCounts
	// SnapshotEvery renders a full report snapshot each time this many
	// records have arrived since the last one (0 = final only).
	SnapshotEvery int
	// OnSnapshot receives each mid-run snapshot with the total record
	// count so far. The final state is returned by the engine, not
	// delivered here.
	OnSnapshot func(records int, reports []*Report)
}

// streamItem is one unit of group work: a feed closure tagged with its
// collection, or a barrier token.
type streamItem struct {
	col     Collection
	feed    func(s Shard)
	barrier *sync.WaitGroup
}

// streamIngest is the per-stream ingestion state machine: accumulator
// worker groups, the append-only world/tables/DID-index, and the
// stop-the-world flush. One instance consumes one block sequence
// strictly in order.
type streamIngest struct {
	accs      []Accumulator
	need      Collection
	w         int
	base      core.CollectionCounts
	world     *World
	didIdx    map[string]int32
	tables    *LabelTables
	groups    [][]int // group → acc indexes
	groupNeed []Collection
	shards    []Shard // allocated once the first record block arrives
	chans     []chan streamItem
	done      sync.WaitGroup
	records   int
}

// newStreamIngest sizes the worker groups. workers ≤ 0 autotunes to
// min(GOMAXPROCS, #accumulators).
func newStreamIngest(accs []Accumulator, workers int, base core.CollectionCounts) *streamIngest {
	need := Collection(0)
	for _, a := range accs {
		need |= a.Needs()
	}
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(accs) {
		w = len(accs)
	}
	if w < 1 {
		w = 1
	}
	si := &streamIngest{
		accs:      accs,
		need:      need,
		w:         w,
		base:      base,
		world:     &World{followers: make([]int32, 0, 1024)},
		didIdx:    make(map[string]int32),
		groups:    make([][]int, w),
		groupNeed: make([]Collection, w),
		chans:     make([]chan streamItem, w),
	}
	if need&ColLabels != 0 {
		si.tables = newLabelTables()
	}
	// Partition accumulators round-robin into worker groups; compute
	// each group's need mask so whole groups skip irrelevant blocks.
	for ai, a := range accs {
		g := ai % w
		si.groups[g] = append(si.groups[g], ai)
		si.groupNeed[g] |= a.Needs()
	}
	return si
}

func (si *streamIngest) startGroups() {
	for g := 0; g < si.w; g++ {
		si.chans[g] = make(chan streamItem, 64)
		si.done.Add(1)
		go func(g int) {
			defer si.done.Done()
			for it := range si.chans[g] {
				if it.barrier != nil {
					it.barrier.Done()
					continue
				}
				for _, ai := range si.groups[g] {
					if si.accs[ai].Needs()&it.col != 0 {
						it.feed(si.shards[ai])
					}
				}
			}
		}(g)
	}
}

func (si *streamIngest) dispatch(col Collection, feed func(s Shard)) {
	for g := 0; g < si.w; g++ {
		if si.groupNeed[g]&col != 0 {
			si.chans[g] <- streamItem{col: col, feed: feed}
		}
	}
}

// flush barriers every group: when it returns, all dispatched blocks
// have been consumed and shard state is quiescent.
func (si *streamIngest) flush() {
	if si.shards == nil {
		return
	}
	var wg sync.WaitGroup
	wg.Add(si.w)
	for g := 0; g < si.w; g++ {
		si.chans[g] <- streamItem{barrier: &wg}
	}
	wg.Wait()
}

// apply ingests one record block and returns its record count.
func (si *streamIngest) apply(b core.RecordBlock) int { return si.applyColumnar(b, nil) }

// applyColumnar ingests one record block together with its decoded
// dictionary view, when the block codec produced one. The view lets
// label metadata fold into the intern tables one hash per *distinct*
// string per block (buildLabelMetaFused) instead of one per record —
// the zero-rehash ingest path. A nil or non-parallel view falls back
// to the per-record path; the resulting tables and metadata are
// byte-identical either way.
func (si *streamIngest) applyColumnar(b core.RecordBlock, db *core.DictBlock) int {
	world, need := si.world, si.need
	// Corpus facts first: shard allocation and label enrichment both
	// read the world, and labeler announcements must precede the
	// labels that reference them.
	if b.Header != nil {
		world.Scale = b.Header.Scale
		world.WindowStart = b.Header.WindowStart
		world.WindowEnd = b.Header.WindowEnd
		world.Firehose = b.Header.Firehose
		world.NonBskyEvents = b.Header.NonBskyEvents
	}
	for _, lb := range b.Labelers {
		if _, dup := si.didIdx[lb.DID]; dup {
			continue // re-announcement (e.g. a reconnecting crawl)
		}
		si.didIdx[lb.DID] = int32(len(world.Labelers))
		world.Labelers = append(world.Labelers, lb)
	}
	world.Firehose.Commits += b.Events.Commits
	world.Firehose.Identity += b.Events.Identity
	world.Firehose.Handle += b.Events.Handle
	world.Firehose.Tombstone += b.Events.Tombstone
	if b.Len() == 0 {
		return 0
	}
	if si.shards == nil {
		si.shards = make([]Shard, len(si.accs))
		for ai, a := range si.accs {
			si.shards[ai] = a.NewShard(world)
		}
		si.startGroups()
	}
	if us := b.Users; len(us) > 0 {
		base := si.base.Users + world.Users
		world.Users += len(us)
		for i := range us {
			world.followers = append(world.followers, int32(us[i].Followers))
		}
		if need&ColUsers != 0 {
			si.dispatch(ColUsers, func(s Shard) { s.Users(us, base) })
		}
	}
	if ps := b.Posts; len(ps) > 0 {
		base := si.base.Posts + world.Posts
		world.Posts += len(ps)
		if need&ColPosts != 0 {
			si.dispatch(ColPosts, func(s Shard) { s.Posts(ps, base) })
		}
	}
	if days := b.Days; len(days) > 0 {
		base := si.base.Days + world.Days
		world.Days += len(days)
		if need&ColDays != 0 {
			si.dispatch(ColDays, func(s Shard) { s.Days(days, base) })
		}
	}
	if ls := b.Labels; len(ls) > 0 {
		base := si.base.Labels + world.Labels
		world.Labels += len(ls)
		if need&ColLabels != 0 {
			// Enrich once in the feeder; groups share the chunk
			// read-only. Unlike the batch path the Meta buffer is
			// per-block, since groups consume asynchronously.
			chunk := &LabelChunk{Labels: ls, Base: base}
			if db != nil && len(db.LabelSrc) == len(ls) {
				chunk.Meta = buildLabelMetaFused(world.Labelers, ls, db, nil, si.tables, si.didIdx)
			} else {
				chunk.Meta = buildLabelMeta(world.Labelers, ls, nil, si.tables, si.didIdx)
			}
			chunk.NumURIs = len(si.tables.URIs)
			chunk.NumVals = len(si.tables.Vals)
			si.dispatch(ColLabels, func(s Shard) { s.Labels(chunk) })
		}
	}
	if fs := b.FeedGens; len(fs) > 0 {
		base := si.base.FeedGens + world.FeedGens
		world.FeedGens += len(fs)
		if need&ColFeedGens != 0 {
			si.dispatch(ColFeedGens, func(s Shard) { s.FeedGens(fs, base) })
		}
	}
	if doms := b.Domains; len(doms) > 0 {
		base := si.base.Domains + world.Domains
		world.Domains += len(doms)
		if need&ColDomains != 0 {
			si.dispatch(ColDomains, func(s Shard) { s.Domains(doms, base) })
		}
	}
	if hus := b.HandleUpdates; len(hus) > 0 {
		base := si.base.HandleUpdates + world.HandleUpdates
		world.HandleUpdates += len(hus)
		if need&ColHandleUpdates != 0 {
			si.dispatch(ColHandleUpdates, func(s Shard) { s.HandleUpdates(hus, base) })
		}
	}
	n := b.Len()
	si.records += n
	return n
}

// finish flushes in-flight work, stops the groups, and allocates
// zero-state shards if no record block ever arrived (so rendering an
// empty stream works). The ingest must not be used afterwards.
func (si *streamIngest) finish() {
	if si.shards == nil {
		si.shards = make([]Shard, len(si.accs))
		for ai, a := range si.accs {
			si.shards[ai] = a.NewShard(si.world)
		}
		return
	}
	si.flush()
	for g := 0; g < si.w; g++ {
		close(si.chans[g])
	}
	si.done.Wait()
}

// Run implements Source. workers ≤ 0 autotunes to
// min(GOMAXPROCS, #accumulators).
func (src *StreamSource) Run(accs []Accumulator, workers int, render RenderFunc) (*World, []Shard, *LabelTables, error) {
	si := newStreamIngest(accs, workers, src.Base)
	sinceSnap := 0
	for b := range src.Blocks {
		sinceSnap += si.apply(b)
		if src.SnapshotEvery > 0 && sinceSnap >= src.SnapshotEvery && render != nil && src.OnSnapshot != nil {
			si.flush()
			src.OnSnapshot(si.records, render(si.world, si.shards, si.tables))
			sinceSnap = 0
		}
	}
	si.finish()
	return si.world, si.shards, si.tables, nil
}
