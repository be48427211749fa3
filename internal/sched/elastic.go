package sched

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/cbor"
	"blueskies/internal/core"
	"blueskies/internal/xrpc"
)

// The elastic run: the pull-based placement engine behind evalPartition.
//
// Placement is a shared queue of evaluation units, ordered by (partition,
// sub-range) — not an assignment. Each worker runs one claim loop: take
// the first queued unit this worker hasn't already failed, evaluate it,
// deliver, repeat. Fast workers therefore drain slow workers' backlogs
// automatically (work stealing is the default behavior, not a special
// case), and a worker that dies simply stops claiming: its in-flight
// unit requeues for the survivors.
//
// Idle workers with nothing left to claim speculate: they re-execute the
// longest-in-flight unit once it has run past the speculation threshold.
// The first valid result wins; because the evaluation is deterministic, a
// late duplicate must be byte-identical to the accepted state — the run
// cross-checks and aborts loudly on divergence, so speculation can never
// silently pick a wrong answer.
//
// Skewed partitions (record totals far above the median) split into
// deterministic contiguous sub-ranges (core.SubPartitionInfos) that
// evaluate as independent units; their states fold back into exactly the
// unsplit partition state before the corpus-level merge sees them.
//
// Every schedule this machinery can produce — any claim interleaving,
// steals, speculation, splits, worker death, local fallback — yields
// output byte-identical to the local DiskSource golden: results are
// slotted by unit id and folded in manifest order, never in arrival
// order.
//
// Concurrency/memory bound: one eval is in flight per worker, and local
// fallback executors are capped at the worker count — so peak resident
// request bytes stay O(workers · partition), matching the old slot
// semantics.

// DefaultSplitFactor triggers dynamic splitting: a partition whose
// record total exceeds this multiple of the median partition splits.
const DefaultSplitFactor = 4.0

// MaxSubPartitions caps how many sub-ranges one partition splits into.
const MaxSubPartitions = 8

// minSpeculateAfter floors the auto speculation threshold so loopback
// tests and fast fleets don't speculate on healthy microsecond evals.
const minSpeculateAfter = 50 * time.Millisecond

// bootstrapStealGrace is the delay-scheduling hold before any eval has
// completed in this run. With no duration baseline the ship cost is the
// only known quantity, so the hold errs long: stealing a unit another
// worker holds cached re-ships megabytes to save an unknown (usually
// small) wait. Once a single eval lands the grace tightens to the
// 3×mean straggler threshold. A dead holder lifts the hold instantly —
// health, not time, gates that path.
const bootstrapStealGrace = 500 * time.Millisecond

// unitID orders evaluation units: partition-major, sub-range-minor.
type unitID struct{ part, sub int }

func (id unitID) String() string { return fmt.Sprintf("%d.%d", id.part, id.sub) }

func idLess(a, b unitID) bool {
	if a.part != b.part {
		return a.part < b.part
	}
	return a.sub < b.sub
}

// unitRes is one unit's accepted evaluation result. state holds the
// raw wire state for remote results (the cheap byte-equality path when
// a speculative duplicate arrives); local results carry only the
// triple.
type unitRes struct {
	world  *analysis.World
	shards []analysis.Shard
	tables *analysis.LabelTables
	state  []byte
}

// unit is one evaluation unit: a whole partition, or one contiguous
// sub-range of a split partition. All mutable fields are guarded by
// elasticRun.mu.
type unit struct {
	id   unitID
	info core.PartitionInfo // corpus-global base + records of this range
	rng  *core.RowRange     // nil = whole partition
	nsub int                // sibling count when split (cache key suffix)
	home int                // (part+sub) % workers — steal accounting only

	queued   bool
	local    bool
	inflight int
	runners  map[int]bool
	failedOn map[int]bool
	cancels  map[int]context.CancelFunc // per-runner attempt cancellation
	started  time.Time                  // first runner's start (speculation age)
	done     bool
	res      *unitRes
	attempts []string
}

// partWait is one partition's completion latch plus the lazily-folded
// partition-level result when the partition ran split.
type partWait struct {
	units  []*unit
	left   int
	ch     chan struct{}
	closed bool

	foldOnce sync.Once
	world    *analysis.World
	shards   []analysis.Shard
	tables   *analysis.LabelTables
	foldErr  error
}

// elasticRun is one scheduler run's shared placement state.
type elasticRun struct {
	s       *Scheduler
	accs    []analysis.Accumulator
	workers int
	fp      string // corpus manifest fingerprint (cache key prefix)

	mu     sync.Mutex
	wake   chan struct{}
	units  map[unitID]*unit
	order  []*unit // every unit, id-sorted (deterministic scans)
	queue  []*unit // claimable units, id-sorted
	localQ []*unit // units routed to local fallback, id-sorted
	parts  map[int]*partWait
	failed bool
	err    error

	active      []bool // worker claim loop running
	localActive int    // local fallback executors running
	retired     []string
	idleSince   []time.Time // when each worker last went claim-empty

	cacheSeen []bool            // CacheInfo resolution claimed by a loop
	cacheDone []bool            // CacheInfo resolution finished (keys seeded)
	cacheOK   []bool            // worker accepts CacheKey references
	cached    []map[string]bool // keys known present per worker

	durN   int
	durSum time.Duration
}

func newElasticRun(s *Scheduler, accs []analysis.Accumulator, workers int) *elasticRun {
	n := len(s.Workers)
	r := &elasticRun{
		s:         s,
		accs:      accs,
		workers:   workers,
		fp:        s.Corpus.Manifest.Fingerprint(),
		wake:      make(chan struct{}),
		units:     make(map[unitID]*unit),
		parts:     make(map[int]*partWait),
		active:    make([]bool, n),
		retired:   make([]string, n),
		idleSince: make([]time.Time, n),
		cacheSeen: make([]bool, n),
		cacheDone: make([]bool, n),
		cacheOK:   make([]bool, n),
		cached:    make([]map[string]bool, n),
	}
	for i := range r.cached {
		r.cached[i] = make(map[string]bool)
	}
	return r
}

// signalLocked wakes every waiter (idle claim loops) once.
func (r *elasticRun) signalLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

func (r *elasticRun) wakeChan() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wake
}

// evalPartition registers (once) and awaits one partition's result —
// RemoteSource.Run's whole implementation.
func (r *elasticRun) evalPartition(part int) (*analysis.World, []analysis.Shard, *analysis.LabelTables, error) {
	r.mu.Lock()
	pw := r.registerLocked(part)
	r.mu.Unlock()
	<-pw.ch
	return r.resolve(pw)
}

// registerLocked creates the partition's units (splitting skewed ones),
// enqueues them, and starts whatever executors can serve them.
func (r *elasticRun) registerLocked(part int) *partWait {
	if pw, ok := r.parts[part]; ok {
		return pw
	}
	pw := &partWait{ch: make(chan struct{})}
	r.parts[part] = pw
	if r.failed {
		pw.closed = true
		close(pw.ch)
		return pw
	}
	info := r.s.Corpus.Manifest.Partitions[part]
	nsub := r.s.splitCount(part)
	nw := len(r.s.Workers)
	for j := 0; j < nsub; j++ {
		u := &unit{
			id:       unitID{part: part, sub: j},
			info:     info,
			runners:  make(map[int]bool),
			failedOn: make(map[int]bool),
			cancels:  make(map[int]context.CancelFunc),
		}
		if nw > 0 {
			u.home = (part + j) % nw
		}
		if nsub > 1 {
			subs := core.SubPartitionInfos(info, nsub)
			u.info = subs[j]
			rng := core.SubRowRange(info, subs[j], j == 0)
			u.rng = &rng
			u.nsub = nsub
		}
		r.units[u.id] = u
		r.order = insertByID(r.order, u)
		r.queue = insertByID(r.queue, u)
		u.queued = true
		pw.units = append(pw.units, u)
	}
	pw.left = len(pw.units)
	if nsub > 1 {
		r.s.Stats.Splits.Add(1)
		r.s.event("split", "-", unitID{part, 0}, "%d records ≥ %.3g× the median partition; evaluating as %d sub-ranges",
			info.Records.Total(), r.s.splitFactor(), nsub)
	}
	r.reapLocked()
	r.ensureWorkersLocked()
	r.signalLocked()
	return pw
}

// insertByID inserts u keeping the slice id-sorted.
func insertByID(q []*unit, u *unit) []*unit {
	i := sort.Search(len(q), func(i int) bool { return !idLess(q[i].id, u.id) })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = u
	return q
}

func removeUnit(q []*unit, u *unit) []*unit {
	for i, v := range q {
		if v == u {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// splitFactor is the effective skew threshold.
func (s *Scheduler) splitFactor() float64 {
	if s.SplitFactor > 0 {
		return s.SplitFactor
	}
	return DefaultSplitFactor
}

// splitCount decides — deterministically, from the manifest alone —
// how many sub-ranges partition part evaluates as. 1 = no split.
func (s *Scheduler) splitCount(part int) int {
	if s.SplitFactor < 0 {
		return 1
	}
	m := s.Corpus.Manifest
	if len(m.Partitions) < 2 {
		return 1 // no sibling baseline to call it skewed against
	}
	totals := make([]int, len(m.Partitions))
	for i := range m.Partitions {
		totals[i] = m.Partitions[i].Records.Total()
	}
	sort.Ints(totals)
	med := totals[len(totals)/2]
	rec := m.Partitions[part].Records.Total()
	if med <= 0 || float64(rec) <= s.splitFactor()*float64(med) {
		return 1
	}
	n := int(math.Ceil(float64(rec) / float64(med)))
	n = min(n, MaxSubPartitions, max(2, 2*max(1, len(s.Workers))))
	return max(n, 2)
}

// ensureWorkersLocked starts a claim loop for every healthy worker
// that doesn't have one running.
func (r *elasticRun) ensureWorkersLocked() {
	if r.failed {
		return
	}
	for wi := range r.s.Workers {
		if r.active[wi] || !r.s.isHealthy(wi) {
			continue
		}
		r.active[wi] = true
		go r.workerLoop(wi)
	}
}

// ensureLocalLocked starts local fallback executors (capped at the
// worker count, minimum one — the old fallback concurrency bound).
func (r *elasticRun) ensureLocalLocked() {
	capN := max(1, len(r.s.Workers))
	for r.localActive < capN && r.localActive < len(r.localQ) {
		r.localActive++
		go r.localLoop()
	}
}

// reapLocked routes every queued unit that no healthy worker can still
// serve to the local fallback (or fails the run under NoFallback).
// Called after registrations and retirements.
func (r *elasticRun) reapLocked() {
	var stranded []*unit
	for _, u := range r.queue {
		if !r.eligibleLocked(u) {
			stranded = append(stranded, u)
		}
	}
	for _, u := range stranded {
		r.queue = removeUnit(r.queue, u)
		u.queued = false
		r.routeLocked(u)
	}
}

// eligibleLocked reports whether some healthy worker can still take u.
func (r *elasticRun) eligibleLocked(u *unit) bool {
	for wi := range r.s.Workers {
		if r.s.isHealthy(wi) && !u.failedOn[wi] {
			return true
		}
	}
	return false
}

// routeLocked sends an exhausted unit to the local fallback, or fails
// the run when the fallback is disabled.
func (r *elasticRun) routeLocked(u *unit) {
	if r.failed || u.done || u.local {
		return
	}
	if r.s.NoFallback {
		r.failLocked(fmt.Errorf("sched: partition %d failed on every worker: %s",
			u.id.part, strings.Join(r.unitAttemptsLocked(u), "; ")))
		return
	}
	u.local = true
	r.localQ = insertByID(r.localQ, u)
	r.s.event("fallback", "-", u.id, "degrading to local out-of-core evaluation (no healthy workers left for it)")
	r.ensureLocalLocked()
}

// unitAttemptsLocked summarizes why every worker is out for u: its own
// failed attempts plus run-level retirement reasons for workers the
// unit never reached.
func (r *elasticRun) unitAttemptsLocked(u *unit) []string {
	out := append([]string(nil), u.attempts...)
	for wi, w := range r.s.Workers {
		if !u.failedOn[wi] && !r.s.isHealthy(wi) && r.retired[wi] != "" {
			out = append(out, fmt.Sprintf("%s: %s", w.Name(), r.retired[wi]))
		}
	}
	if len(out) == 0 {
		out = append(out, "no workers configured")
	}
	return out
}

// failLocked aborts the run: every partition latch opens, every
// executor drains out on its next claim.
func (r *elasticRun) failLocked(err error) {
	if r.failed {
		return
	}
	r.failed = true
	r.err = err
	for _, pw := range r.parts {
		if !pw.closed {
			pw.closed = true
			close(pw.ch)
		}
	}
	r.signalLocked()
}

func (r *elasticRun) failRun(err error) {
	r.mu.Lock()
	r.failLocked(err)
	r.mu.Unlock()
}

func (r *elasticRun) runFailed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// drain blocks until no evaluation is in flight, then reports the
// run's failure state. RunAll calls it after the fold: a speculative
// duplicate still running when every partition has resolved must be
// cross-checked before the results are handed out — divergence fails
// the run, never slips past it. The wait is short: losing runners are
// canceled at deliver time, so a ctx-aware transport returns at once,
// and a transport that ignores cancellation finishes one in-flight
// evaluation per worker at most (the queue is empty by then) and has
// its result cross-checked.
func (r *elasticRun) drain() error {
	for {
		r.mu.Lock()
		if r.failed {
			err := r.err
			r.mu.Unlock()
			return err
		}
		busy := false
		for _, u := range r.order {
			if u.inflight > 0 {
				busy = true
				break
			}
		}
		ch := r.wake
		r.mu.Unlock()
		if !busy {
			return nil
		}
		<-ch
	}
}

// retire takes worker wi out of the run (first caller logs).
func (r *elasticRun) retire(wi int, reason string) {
	if r.s.markUnhealthy(wi) {
		r.s.event("retire", r.s.Workers[wi].Name(), unitID{-1, -1}, "%s", reason)
		r.mu.Lock()
		r.retired[wi] = reason
		r.reapLocked()
		r.signalLocked()
		r.mu.Unlock()
	}
}

// ---- the claim loop ----

func (r *elasticRun) workerLoop(wi int) {
	ctx := context.Background()
	if r.s.ShipBlocks {
		r.resolveCache(ctx, wi)
	}
	for {
		u, spec, wait, exit := r.claim(wi)
		if exit {
			r.deactivate(wi)
			return
		}
		if u == nil {
			select {
			case <-r.wakeChan():
			case <-time.After(wait):
			}
			continue
		}
		r.execute(ctx, wi, u, spec)
	}
}

// deactivate marks the claim loop stopped and re-checks: if claimable
// work appeared between the last claim and this flag flip, restart.
func (r *elasticRun) deactivate(wi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active[wi] = false
	if r.failed || !r.s.isHealthy(wi) {
		return
	}
	for _, u := range r.queue {
		if !u.failedOn[wi] {
			r.active[wi] = true
			go r.workerLoop(wi)
			return
		}
	}
}

// claim picks this worker's next action: a queued unit (steal-by-
// default pull, preferring units whose payload this worker already
// caches), a speculative duplicate of a straggling in-flight unit, a
// timed wait, or loop exit when this worker can never help again.
func (r *elasticRun) claim(wi int) (u *unit, spec bool, wait time.Duration, exit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed || !r.s.isHealthy(wi) {
		return nil, false, 0, true
	}
	var pick *unit
	if r.cacheOK[wi] {
		// Warm affinity: a unit this worker holds cached costs zero ship
		// bytes here but a full payload anywhere else — claim it first.
		for _, cand := range r.queue {
			if !cand.failedOn[wi] && r.cached[wi][r.unitKey(cand)] {
				pick = cand
				break
			}
		}
	}
	held := false
	if pick == nil {
		// Delay scheduling: a unit cached on another healthy worker
		// ships zero bytes there but a full payload here, so leave it
		// to its holder — until this worker has idled past the steal
		// grace, when latency beats the ship bytes (the holder is the
		// straggler now).
		graceOver := !r.idleSince[wi].IsZero() && time.Since(r.idleSince[wi]) >= r.stealGraceLocked() //lint:walltime delay-scheduling steal grace; placement only, never corpus bytes
		// Until every healthy worker's cache description resolves, any
		// candidate might be cached on a peer whose keys haven't landed
		// yet — hold them all (the grace bounds the wait, so a hung
		// describe can't stall the run).
		described := r.describedLocked()
		for _, cand := range r.queue {
			if cand.failedOn[wi] {
				continue
			}
			if !graceOver && (!described || r.cachedElsewhereLocked(cand, wi)) {
				held = true
				continue
			}
			pick = cand
			break
		}
	}
	if pick != nil {
		r.idleSince[wi] = time.Time{}
		r.queue = removeUnit(r.queue, pick)
		pick.queued = false
		r.startLocked(pick, wi)
		if pick.home != wi {
			r.s.Stats.Steals.Add(1)
			r.s.event("steal", r.s.Workers[wi].Name(), pick.id, "pulled from worker %d's backlog", pick.home)
		}
		return pick, false, 0, false
	}
	if r.idleSince[wi].IsZero() {
		r.idleSince[wi] = time.Now() //lint:walltime delay-scheduling steal grace; placement only, never corpus bytes
	}
	if held {
		return nil, false, 20 * time.Millisecond, false
	}
	// Nothing claimable. Any unit still in play for this worker?
	pending := false
	for _, cand := range r.order {
		if cand.done || cand.local {
			continue
		}
		if cand.inflight > 0 || !cand.failedOn[wi] {
			pending = true
			break
		}
	}
	if !pending {
		return nil, false, 0, true
	}
	target, soonest := r.specTargetLocked(wi)
	if target != nil {
		r.startLocked(target, wi)
		r.s.Stats.Speculations.Add(1)
		r.s.event("speculate", r.s.Workers[wi].Name(), target.id, "in flight %v ≥ threshold; re-executing speculatively",
			time.Since(target.started).Round(time.Millisecond)) //lint:walltime speculation age diagnostics; output stays byte-identical (duplicates are cross-checked)
		return target, true, 0, false
	}
	if soonest <= 0 || soonest > 100*time.Millisecond {
		soonest = 100 * time.Millisecond
	}
	return nil, false, soonest, false
}

func (r *elasticRun) startLocked(u *unit, wi int) {
	if u.inflight == 0 {
		u.started = time.Now() //lint:walltime speculation straggler detection; placement only, never corpus bytes
	}
	u.inflight++
	u.runners[wi] = true
}

// stealGraceLocked is how long a worker must idle before stealing a
// unit another healthy worker holds cached — the same straggler
// threshold speculation uses.
func (r *elasticRun) stealGraceLocked() time.Duration {
	if r.s.SpeculateAfter > 0 {
		return r.s.SpeculateAfter
	}
	if r.durN == 0 {
		return bootstrapStealGrace
	}
	thr := 3 * (r.durSum / time.Duration(r.durN))
	if thr < minSpeculateAfter {
		thr = minSpeculateAfter
	}
	return thr
}

// describedLocked reports whether every healthy worker's cache
// description has finished resolving — before that, peers' cached-key
// sets are blind spots for placement. Store-mode runs never describe
// caches, so they are always "described".
func (r *elasticRun) describedLocked() bool {
	if !r.s.ShipBlocks {
		return true
	}
	for wj := range r.s.Workers {
		if r.s.isHealthy(wj) && !r.cacheDone[wj] {
			return false
		}
	}
	return true
}

// cachedElsewhereLocked reports whether some other healthy worker
// holds u's payload cached.
func (r *elasticRun) cachedElsewhereLocked(u *unit, wi int) bool {
	key := r.unitKey(u)
	for wj := range r.s.Workers {
		if wj != wi && r.s.isHealthy(wj) && r.cacheOK[wj] && r.cached[wj][key] {
			return true
		}
	}
	return false
}

// specTargetLocked finds the longest-in-flight unit past the
// speculation threshold that this worker may duplicate, or how long
// until the earliest candidate crosses it.
func (r *elasticRun) specTargetLocked(wi int) (*unit, time.Duration) {
	if r.s.SpeculateAfter < 0 {
		return nil, 0
	}
	thr := r.s.SpeculateAfter
	if thr == 0 {
		if r.durN == 0 {
			return nil, 0 // no completed eval yet: no straggler baseline
		}
		thr = 3 * (r.durSum / time.Duration(r.durN))
		if thr < minSpeculateAfter {
			thr = minSpeculateAfter
		}
	}
	var best *unit
	var soonest time.Duration
	now := time.Now() //lint:walltime speculation straggler detection; placement only, never corpus bytes
	for _, u := range r.order {
		if u.done || u.local || u.inflight == 0 || u.inflight >= 2 {
			continue
		}
		if u.runners[wi] || u.failedOn[wi] {
			continue
		}
		age := now.Sub(u.started)
		if age >= thr {
			if best == nil || u.started.Before(best.started) {
				best = u
			}
		} else if d := thr - age; soonest == 0 || d < soonest {
			soonest = d
		}
	}
	return best, soonest
}

// ---- executing one unit on one worker ----

// baseRequest builds the fields every request for u shares.
func (r *elasticRun) baseRequest(u *unit) *EvalRequest {
	return &EvalRequest{
		Version: ProtocolVersion,
		Accs:    analysis.Fingerprint(r.accs),
		Base:    u.info.Base,
		Records: &u.info.Records,
		Workers: r.workers,
		Range:   u.rng,
	}
}

// unitKey addresses the exact payload unit u ships. A manifest that
// records per-partition content hashes keys by them — the same
// partition bytes in any corpus hit the same worker cache entry, so
// re-sharded or re-spilled corpora warm-start across runs. Hashless
// (pre-hash) manifests fall back to the fingerprint-scoped CacheKey.
// Split sub-units ship sliced payloads, so their keys carry the
// sub-range coordinates: a sub-unit's entry is never the parent's.
func (r *elasticRun) unitKey(u *unit) string {
	addr := fmt.Sprintf("%s/%d", r.fp, u.id.part)
	if h := r.s.Corpus.Manifest.Partitions[u.id.part].ContentHash; h != "" {
		addr = "c/" + h
	}
	if u.rng != nil {
		addr = fmt.Sprintf("%s/s%d.%d", addr, u.id.sub, u.nsub)
	}
	return formatKey(addr)
}

// shipUnitBlocks builds the framed block payload unit u ships: the
// partition's blocks, sliced to the unit's sub-range when it is one
// leg of a split (shipping a whole parent payload per sub-unit re-sent
// the same megabytes nsub times), and LZ-compressed per frame.
func (r *elasticRun) shipUnitBlocks(u *unit) ([]byte, error) {
	blocks, err := ReadPartitionBlocks(r.s.Corpus, u.id.part)
	if err != nil {
		return nil, fmt.Errorf("sched: read partition %d blocks: %w", u.id.part, err)
	}
	if u.rng != nil {
		blocks, err = core.ClipPartitionBlocks(blocks, *u.rng)
		if err != nil {
			return nil, fmt.Errorf("sched: slice partition %d blocks to sub-range %s: %w", u.id.part, u.id, err)
		}
	}
	blocks, err = core.CompressPartitionBlocks(blocks)
	if err != nil {
		return nil, fmt.Errorf("sched: compress partition %d blocks: %w", u.id.part, err)
	}
	return blocks, nil
}

// execute runs unit u on worker wi: build the request (cache-aware),
// evaluate, re-ship inline on a cache miss, validate, deliver.
func (r *elasticRun) execute(ctx context.Context, wi int, u *unit, spec bool) {
	w := r.s.Workers[wi]
	// Each attempt gets its own cancelable context: when another runner
	// delivers this unit first, the loser is canceled so a straggler's
	// abandoned duplicate never gates RunAll's drain.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.mu.Lock()
	u.cancels[wi] = cancel
	r.mu.Unlock()
	start := time.Now() //lint:walltime eval duration feeds the speculation threshold; placement only
	state, err := r.attempt(ctx, wi, u, false)
	if err != nil {
		if xe, ok := isCacheMiss(err); ok {
			r.s.Stats.CacheMisses.Add(1)
			key := r.unitKey(u)
			r.mu.Lock()
			delete(r.cached[wi], key)
			r.mu.Unlock()
			r.s.event("cache-miss", w.Name(), u.id, "worker cannot serve %s (%s); re-shipping inline", key, xe.Message)
			state, err = r.attempt(ctx, wi, u, true)
		}
	}
	if err != nil {
		_, isFallback := err.(*fallbackError)
		r.mu.Lock()
		superseded := u.done
		r.mu.Unlock()
		if isFallback || superseded || r.runFailed() {
			// Unshippable unit, superseded duplicate (another runner
			// delivered first and canceled this attempt), or the run
			// already failed for a reason of its own: none of these
			// blames the worker. Release the runner; an unshippable unit
			// goes to the local fallback directly.
			r.mu.Lock()
			u.runners[wi] = false
			delete(u.cancels, wi)
			u.inflight--
			if superseded && !isFallback {
				r.s.event("spec-abandon", w.Name(), u.id, "attempt canceled after another runner delivered: %v", err)
			}
			if isFallback && !u.done && !u.queued && u.inflight == 0 {
				r.s.event("ship-skip", w.Name(), u.id, "%s", err.Error())
				r.routeLocked(u)
			}
			r.signalLocked()
			r.mu.Unlock()
			return
		}
		r.unitFailed(wi, u, err.Error())
		return
	}
	world, shards, tables, err := analysis.UnmarshalPartitionState(r.accs, state)
	if err != nil {
		r.unitFailed(wi, u, err.Error())
		return
	}
	if got := world.Counts(); got != u.info.Records {
		r.unitFailed(wi, u, fmt.Sprintf("returned %+v records but the manifest promises %+v", got, u.info.Records))
		return
	}
	dur := time.Since(start) //lint:walltime eval duration feeds the speculation threshold; placement only
	r.deliver(wi, u, &unitRes{world: world, shards: shards, tables: tables, state: state}, dur, spec)
}

// fallbackError routes a unit to local evaluation without blaming the
// worker (oversized ship payloads).
type fallbackError struct{ reason string }

func (e *fallbackError) Error() string { return e.reason }

// attempt performs one evaluation RPC. forceInline bypasses the
// cache-reference path after a miss.
func (r *elasticRun) attempt(ctx context.Context, wi int, u *unit, forceInline bool) ([]byte, error) {
	w := r.s.Workers[wi]
	req := r.baseRequest(u)
	limit := r.s.maxShip()
	keyOnly := false
	shipped := 0
	if r.s.ShipBlocks {
		var key string
		r.mu.Lock()
		if r.cacheOK[wi] {
			key = r.unitKey(u)
			keyOnly = !forceInline && r.cached[wi][key]
		}
		r.mu.Unlock()
		req.CacheKey = key
		if !keyOnly {
			blocks, err := r.shipUnitBlocks(u)
			if err != nil {
				r.failRun(err) // local read/slice/compress failure: the run is wrong, not the worker
				return nil, err
			}
			req.Blocks = blocks
			shipped = len(blocks)
		}
		// Shipped (and cached) payloads are pre-sliced to the unit's
		// sub-range, so the worker must not clip them again; only the
		// store path sends the row range for worker-side clipping.
		req.Range = nil
	} else {
		req.Store = r.s.Corpus.Dir
		req.Partition = u.id.part
	}
	body, err := cbor.Marshal(req)
	if err != nil {
		r.failRun(err)
		return nil, err
	}
	if r.s.ShipBlocks && len(body) > limit {
		if r.s.NoFallback {
			err := fmt.Errorf("sched: partition %d request of %d bytes exceeds the %d-byte ship bound", u.id.part, len(body), limit)
			r.failRun(err)
			return nil, err
		}
		return nil, &fallbackError{reason: fmt.Sprintf("request (%d bytes) exceeds the %d-byte ship bound; evaluating locally", len(body), limit)}
	}
	if shipped > 0 {
		r.s.Stats.ShippedBytes.Add(int64(shipped))
	}
	state, err := w.Eval(ctx, body)
	if err != nil {
		return nil, err
	}
	if r.s.ShipBlocks && req.CacheKey != "" {
		r.mu.Lock()
		r.cached[wi][req.CacheKey] = true // shipped payloads are cached after use
		r.mu.Unlock()
		if keyOnly {
			r.s.Stats.CacheHits.Add(1)
			r.s.event("cache-hit", w.Name(), u.id, "evaluated from cached %s (0 payload bytes shipped)", req.CacheKey)
		}
	}
	return state, nil
}

// isCacheMiss matches the worker's distinguishable cache-miss answer.
func isCacheMiss(err error) (*xrpc.Error, bool) {
	if xe, ok := xrpc.AsError(err); ok && xe.Name == CacheMissName {
		return xe, true
	}
	return nil, false
}

// resolveCache queries the worker's cache capability and seeds the
// known-cached key set from its describe advertisement.
func (r *elasticRun) resolveCache(ctx context.Context, wi int) {
	r.mu.Lock()
	seen := r.cacheSeen[wi]
	r.cacheSeen[wi] = true
	r.mu.Unlock()
	if seen {
		return
	}
	defer func() {
		r.mu.Lock()
		r.cacheDone[wi] = true
		r.signalLocked()
		r.mu.Unlock()
	}()
	cw, ok := r.s.Workers[wi].(CacheWorker)
	if !ok {
		return
	}
	ci, err := cw.CacheInfo(ctx)
	if err != nil || !ci.Enabled {
		return
	}
	r.mu.Lock()
	r.cacheOK[wi] = true
	for _, k := range ci.Keys {
		r.cached[wi][k] = true
	}
	r.mu.Unlock()
}

// unitFailed records a failed evaluation: the worker retires, the unit
// requeues for the survivors (or routes local once exhausted).
func (r *elasticRun) unitFailed(wi int, u *unit, msg string) {
	w := r.s.Workers[wi]
	if r.s.markUnhealthy(wi) {
		r.s.event("retire", w.Name(), u.id, "%s", msg)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retired[wi] = msg
	u.runners[wi] = false
	delete(u.cancels, wi)
	u.inflight--
	u.failedOn[wi] = true
	u.attempts = append(u.attempts, fmt.Sprintf("%s: %s", w.Name(), msg))
	if !u.done && u.inflight == 0 && !u.queued && !u.local {
		if r.eligibleLocked(u) {
			r.queue = insertByID(r.queue, u)
			u.queued = true
		} else {
			r.routeLocked(u)
		}
	}
	r.reapLocked()
	r.ensureWorkersLocked()
	r.signalLocked()
}

// deliver accepts one unit result. The first valid result wins; a
// speculative duplicate is cross-checked byte-for-byte against the
// accepted state and any divergence aborts the run — determinism makes
// duplicates free, so a difference can only mean corrupt execution.
func (r *elasticRun) deliver(wi int, u *unit, res *unitRes, dur time.Duration, spec bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if wi >= 0 {
		u.runners[wi] = false
		delete(u.cancels, wi)
		u.inflight--
		r.durN++
		r.durSum += dur
		r.s.Stats.Evals.Add(1)
	} else {
		r.s.Stats.LocalEvals.Add(1)
	}
	if r.failed {
		return
	}
	if u.done {
		equal, err := r.statesEqual(u.res, res)
		if err != nil {
			r.failLocked(fmt.Errorf("sched: partition %s: cross-checking speculative duplicate: %w", u.id, err))
			return
		}
		if !equal {
			r.failLocked(fmt.Errorf("sched: partition %s: speculative duplicate diverged from the accepted state byte-for-byte — nondeterministic evaluation, aborting the run", u.id))
			return
		}
		r.s.Stats.SpecDuplicates.Add(1)
		r.s.event("spec-dup", r.runnerName(wi), u.id, "duplicate result verified byte-identical")
		r.signalLocked()
		return
	}
	u.done = true
	u.res = res
	// Cancel the losing runners: their results are redundant (a loser
	// that completes anyway is still cross-checked above), and waiting
	// out a straggler's abandoned duplicate would gate the drain.
	for _, cancel := range u.cancels {
		cancel()
	}
	if spec {
		r.s.Stats.SpecWins.Add(1)
		r.s.event("spec-win", r.runnerName(wi), u.id, "speculative re-execution finished first")
	}
	pw := r.parts[u.id.part]
	pw.left--
	if pw.left == 0 && !pw.closed {
		pw.closed = true
		close(pw.ch)
	}
	r.signalLocked()
}

func (r *elasticRun) runnerName(wi int) string {
	if wi < 0 {
		return "local"
	}
	return r.s.Workers[wi].Name()
}

// statesEqual cross-checks two results for one unit. Raw wire bytes
// compare directly when both results carry them; otherwise both
// canonicalize through the state codec first.
func (r *elasticRun) statesEqual(a, b *unitRes) (bool, error) {
	ca, err := r.canonState(a)
	if err != nil {
		return false, err
	}
	cb, err := r.canonState(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ca, cb), nil
}

func (r *elasticRun) canonState(res *unitRes) ([]byte, error) {
	if res.state != nil {
		return res.state, nil
	}
	return analysis.MarshalPartitionState(r.accs, res.world, res.shards, res.tables)
}

// ---- local fallback executors ----

func (r *elasticRun) localLoop() {
	for {
		r.mu.Lock()
		if r.failed || len(r.localQ) == 0 {
			r.localActive--
			r.mu.Unlock()
			return
		}
		u := r.localQ[0]
		r.localQ = r.localQ[1:]
		r.mu.Unlock()
		world, shards, tables, err := r.localEval(u)
		if err != nil {
			r.failRun(err)
			continue
		}
		r.deliver(-1, u, &unitRes{world: world, shards: shards, tables: tables}, 0, false)
	}
}

// localEval is the out-of-core traversal of one unit — exactly what
// RunAllDisk would do for the partition, clipped to the unit's range.
func (r *elasticRun) localEval(u *unit) (*analysis.World, []analysis.Shard, *analysis.LabelTables, error) {
	part := u.id.part
	rs := &analysis.ReaderSource{
		Open:    func() (*core.PartitionReader, error) { return r.s.Corpus.OpenPartition(part) },
		Base:    u.info.Base,
		Records: &u.info.Records,
		Clip:    u.rng,
		Name:    fmt.Sprintf("partition %d", part),
	}
	return rs.Run(r.accs, r.workers, nil)
}

// ---- resolving a partition's result ----

// resolve returns the partition-level triple: the single unit's result,
// or — for a split partition — the sub-range states folded back into
// one partition state (a SharedIndex fold at partition-local bases,
// byte-identical to the unsplit evaluation by the split-parity
// contract).
func (r *elasticRun) resolve(pw *partWait) (*analysis.World, []analysis.Shard, *analysis.LabelTables, error) {
	r.mu.Lock()
	failedErr := r.err
	left := pw.left
	r.mu.Unlock()
	if left > 0 {
		if failedErr != nil {
			return nil, nil, nil, failedErr
		}
		return nil, nil, nil, fmt.Errorf("sched: partition latch opened with %d units unresolved", left)
	}
	pw.foldOnce.Do(func() {
		if len(pw.units) == 1 {
			res := pw.units[0].res
			pw.world, pw.shards, pw.tables = res.world, res.shards, res.tables
			return
		}
		im := &core.Manifest{SharedIndex: true}
		ms := &analysis.MultiSource{Manifest: im}
		for j, u := range pw.units {
			im.AddPartition(core.PartitionInfo{Index: j, Records: u.info.Records}, u.info.WindowStart, u.info.WindowEnd)
			ms.Sources = append(ms.Sources, &analysis.StateSource{World: u.res.world, Shards: u.res.shards, Tables: u.res.tables})
		}
		pw.world, pw.shards, pw.tables, pw.foldErr = ms.Run(r.accs, r.workers, nil)
	})
	return pw.world, pw.shards, pw.tables, pw.foldErr
}
