package sched

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blueskies/internal/cbor"
	"blueskies/internal/core"
	"blueskies/internal/synth"
)

// ---- block cache unit tests ----

func TestBlockCacheRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		c, err := NewBlockCache(dir, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get("absent"); err != ErrCacheMiss {
			t.Fatalf("dir=%q: Get(absent) = %v, want ErrCacheMiss", dir, err)
		}
		payload := []byte("framed partition bytes")
		if err := c.Put("k1", payload); err != nil {
			t.Fatal(err)
		}
		got, err := c.Get("k1")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("dir=%q: Get(k1) = %q, %v", dir, got, err)
		}
		if !c.Has("k1") || c.Has("k2") {
			t.Fatalf("dir=%q: Has is wrong", dir)
		}
		if c.Bytes() != int64(len(payload)) {
			t.Fatalf("dir=%q: Bytes() = %d, want %d", dir, c.Bytes(), len(payload))
		}
	}
}

func TestBlockCacheKeysSorted(t *testing.T) {
	c, _ := NewBlockCache("", 1<<20)
	for _, k := range []string{"zz", "aa", "mm"} {
		if err := c.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Keys()
	want := []string{"aa", "mm", "zz"}
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestBlockCacheEvictsLRU(t *testing.T) {
	c, _ := NewBlockCache("", 30)
	for _, k := range []string{"a", "b", "c"} {
		if err := c.Put(k, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm "a" so "b" is the coldest, then overflow.
	if _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("d", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if c.Has("b") {
		t.Fatal("coldest entry b survived eviction")
	}
	if !c.Has("a") || !c.Has("c") || !c.Has("d") {
		t.Fatalf("wrong eviction victim; keys = %v", c.Keys())
	}
	if err := c.Put("huge", make([]byte, 31)); err == nil {
		t.Fatal("cache accepted a payload bigger than its bound")
	}
}

func TestBlockCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewBlockCache(dir, 1<<20)
	if err := c1.Put("persist/me", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c2, err := NewBlockCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Get("persist/me")
	if err != nil || string(got) != "payload" {
		t.Fatalf("reopened cache: Get = %q, %v", got, err)
	}
}

func TestBlockCacheDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewBlockCache(dir, 1<<20)
	if err := c.Put("k", []byte("legitimate bytes")); err != nil {
		t.Fatal(err)
	}
	corruptCacheDir(t, dir)
	if _, err := c.Get("k"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Get over a corrupted entry = %v, want ErrCacheCorrupt", err)
	}
	// The bad entry must be evicted: the next read is a plain miss.
	if _, err := c.Get("k"); err != ErrCacheMiss {
		t.Fatalf("corrupt entry was not evicted: %v", err)
	}
}

// corruptCacheDir flips every cache entry file in dir into garbage.
func corruptCacheDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".blk") {
			if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("garbage, not a cache entry"), 0o644); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no cache entries to corrupt")
	}
}

// ---- worker cache endpoints ----

func TestWorkerEvalFromCacheOnly(t *testing.T) {
	c := spillN(t, 2)
	blocks, err := ReadPartitionBlocks(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := NewBlockCache("", 1<<30)
	srv := &Server{Cache: cache}
	info := c.Manifest.Partitions[0]
	req := &EvalRequest{
		Version: ProtocolVersion,
		Base:    info.Base,
		Records: &info.Records,
		Workers: 1,
	}
	// An unknown key answers the named cache-miss error, not a generic one.
	req.CacheKey = "nope"
	if _, err := srv.EvalPartition(mustCBOR(t, req)); err == nil {
		t.Fatal("eval from an absent cache key succeeded")
	} else if _, ok := isCacheMiss(err); !ok {
		t.Fatalf("absent key error = %v, want name %s", err, CacheMissName)
	}
	// Inline eval with a cache key stores the payload...
	req.CacheKey = "k0"
	req.Blocks = blocks
	wantState, err := srv.EvalPartition(mustCBOR(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if dr := srv.Describe(); !dr.CacheEnabled || len(dr.Cached) != 1 || dr.Cached[0] != "k0" || dr.CacheBytes != int64(len(blocks)) {
		t.Fatalf("describe does not advertise the cached payload: %+v", dr)
	}
	// ...so the same evaluation runs from the cache with zero payload
	// bytes, returning byte-identical state.
	req.Blocks = nil
	gotState, err := srv.EvalPartition(mustCBOR(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatal("cached evaluation differs from the inline evaluation")
	}
	// Store reference + cache key is ambiguous and rejected.
	req.Blocks = nil
	req.Store = c.Dir
	if _, err := srv.EvalPartition(mustCBOR(t, req)); err == nil {
		t.Fatal("store+cacheKey request accepted")
	}
}

func mustCBOR(t *testing.T, v any) []byte {
	t.Helper()
	b, err := cbor.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ---- elastic scheduler: warm cache ----

// TestElasticWarmCacheParity is the caching half of the tentpole's
// acceptance gate: a second run over the same corpus against workers
// holding warm block caches must ship (almost) no payload bytes —
// every evaluation resolves by cache key — and stay byte-identical to
// the golden.
func TestElasticWarmCacheParity(t *testing.T) {
	c := spillN(t, 4)
	cache0, _ := NewBlockCache("", 1<<30)
	cache1, _ := NewBlockCache("", 1<<30)
	w0 := &Loopback{Server: &Server{Cache: cache0}, Label: "w0"}
	w1 := &Loopback{Server: &Server{Cache: cache1}, Label: "w1"}

	cold := New(c, w0, w1)
	cold.ShipBlocks = true
	cold.Logf = t.Logf
	got, err := cold.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "elastic-cold", got)
	coldBytes := cold.Stats.ShippedBytes.Load()
	if coldBytes == 0 {
		t.Fatal("cold run shipped no bytes")
	}

	warm := New(c, w0, w1)
	warm.ShipBlocks = true
	// A long straggler threshold keeps the steal grace generous: no
	// worker re-ships a unit its peer holds cached just because the
	// peer is a few evaluations behind.
	warm.SpeculateAfter = 5 * time.Second
	warm.Logf = t.Logf
	got, err = warm.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "elastic-warm", got)
	warmBytes := warm.Stats.ShippedBytes.Load()
	if warmBytes*100 >= coldBytes {
		t.Fatalf("warm run shipped %d bytes, cold shipped %d: want < 1%%", warmBytes, coldBytes)
	}
	if hits := warm.Stats.CacheHits.Load(); hits < 4 {
		t.Fatalf("warm run served %d cache hits, want ≥ 4 (one per partition)", hits)
	}
}

// TestElasticStaleFingerprintReships pins cache addressing: a
// different corpus (here: the same dataset split differently, so every
// manifest fingerprint changes) must not hit keys cached for the old
// one — stale state is unreachable by construction, never served.
func TestElasticStaleFingerprintReships(t *testing.T) {
	cache, _ := NewBlockCache("", 1<<30)
	w := &Loopback{Server: &Server{Cache: cache}, Label: "w0"}

	warmup := New(spillN(t, 4), w)
	warmup.ShipBlocks = true
	warmup.Logf = t.Logf
	if _, err := warmup.RunAll(2); err != nil {
		t.Fatal(err)
	}
	if cache.Bytes() == 0 {
		t.Fatal("warmup cached nothing")
	}

	other := New(spillN(t, 8), w)
	other.ShipBlocks = true
	other.Logf = t.Logf
	got, err := other.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "elastic-stale-fp", got)
	if hits := other.Stats.CacheHits.Load(); hits != 0 {
		t.Fatalf("differently-partitioned corpus got %d cache hits off stale keys", hits)
	}
	if other.Stats.ShippedBytes.Load() == 0 {
		t.Fatal("re-partitioned corpus shipped nothing: stale cache served it")
	}
}

// TestElasticColdShipsEachUnitOnce pins the cold-run ship volume: with
// empty caches and no speculation (a speculative duplicate ships again
// on purpose), every unit's payload crosses the wire exactly once,
// inside the evaluation request that needs it — so ShippedBytes is the
// exact sum of the compressed payloads, whole partitions or clipped
// sub-ranges, whatever the claim interleaving.
func TestElasticColdShipsEachUnitOnce(t *testing.T) {
	c := spillN(t, 4)
	for _, tc := range []struct {
		name        string
		splitFactor float64
		splits      int64
	}{
		{"whole", -1, 0},
		{"split", 0.5, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var workers []Worker
			for i := 0; i < 2; i++ {
				cache, _ := NewBlockCache("", 1<<30)
				workers = append(workers, &Loopback{Server: &Server{Cache: cache}, Label: fmt.Sprintf("w%d", i)})
			}
			s := New(c, workers...)
			s.ShipBlocks = true
			s.SpeculateAfter = -1
			s.SplitFactor = tc.splitFactor
			s.Logf = t.Logf
			var want int64
			for k, info := range c.Manifest.Partitions {
				blocks, err := ReadPartitionBlocks(c, k)
				if err != nil {
					t.Fatal(err)
				}
				payloads := [][]byte{blocks}
				if n := s.splitCount(k); n > 1 {
					payloads = payloads[:0]
					for j, sub := range core.SubPartitionInfos(info, n) {
						clipped, err := core.ClipPartitionBlocks(blocks, core.SubRowRange(info, sub, j == 0))
						if err != nil {
							t.Fatal(err)
						}
						payloads = append(payloads, clipped)
					}
				}
				for _, p := range payloads {
					z, err := core.CompressPartitionBlocks(p)
					if err != nil {
						t.Fatal(err)
					}
					want += int64(len(z))
				}
			}
			got, err := s.RunAll(2)
			if err != nil {
				t.Fatal(err)
			}
			compareToGolden(t, "elastic-cold-once-"+tc.name, got)
			if n := s.Stats.Splits.Load(); n != tc.splits {
				t.Fatalf("%d partitions split, want %d", n, tc.splits)
			}
			if h, m := s.Stats.CacheHits.Load(), s.Stats.CacheMisses.Load(); h != 0 || m != 0 {
				t.Fatalf("cold run saw %d cache hits and %d misses, want none", h, m)
			}
			if shipped := s.Stats.ShippedBytes.Load(); shipped != want {
				t.Fatalf("cold run shipped %d bytes, want %d (each unit's compressed payload once)", shipped, want)
			}
		})
	}
}

// TestElasticCacheCorruptionReships pins the loud-degrade path: a
// worker whose cache directory rots under it answers CacheMiss, the
// scheduler re-ships the bytes inline, the worker is NOT retired, and
// the output stays byte-identical.
func TestElasticCacheCorruptionReships(t *testing.T) {
	c := spillN(t, 4)
	dir := t.TempDir()
	cache, err := NewBlockCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	w := &Loopback{Server: &Server{Cache: cache}, Label: "w0"}

	warmup := New(c, w)
	warmup.ShipBlocks = true
	warmup.Logf = t.Logf
	if _, err := warmup.RunAll(2); err != nil {
		t.Fatal(err)
	}
	corruptCacheDir(t, dir)

	s := New(c, w)
	s.ShipBlocks = true
	s.Logf = t.Logf
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "elastic-corrupt-cache", got)
	if misses := s.Stats.CacheMisses.Load(); misses < 1 {
		t.Fatalf("corrupted cache produced %d misses, want ≥ 1", misses)
	}
	if !s.isHealthy(0) {
		t.Fatal("cache corruption retired the worker; it must only cost the optimization")
	}
	if s.Stats.ShippedBytes.Load() == 0 {
		t.Fatal("nothing was re-shipped after corruption")
	}
}

// ---- elastic scheduler: speculation ----

// stragglerDeadline bounds how long a test straggler may be held: the
// returned channel closes after a minute. A scheduler that never
// cancels the straggler's copy then finishes the run anyway, and the
// test fails on its speculation assertions instead of hanging.
func stragglerDeadline(t *testing.T) <-chan struct{} {
	ch := make(chan struct{})
	timer := time.AfterFunc(time.Minute, func() { close(ch) })
	t.Cleanup(func() { timer.Stop() })
	return ch
}

// delayedWorker is the injected straggler: its first evaluation is
// held until the scheduler cancels it, which deliver does only once
// another runner's copy of the unit has won, or until release closes.
// Later evaluations pass straight through.
type delayedWorker struct {
	inner   Worker
	release <-chan struct{}
	held    atomic.Bool
}

func (w *delayedWorker) Name() string { return w.inner.Name() + "-slow" }
func (w *delayedWorker) Eval(ctx context.Context, req []byte) ([]byte, error) {
	if w.held.CompareAndSwap(false, true) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-w.release:
		}
	}
	return w.inner.Eval(ctx, req)
}

// TestElasticSpeculationCoversStraggler is the speculation half of the
// acceptance gate: the straggler's first unit is held until it is
// canceled, so the run can only finish through the fast worker
// re-executing that unit and winning — the straggler no longer gates
// the run, and the output is still byte-identical.
func TestElasticSpeculationCoversStraggler(t *testing.T) {
	c := spillN(t, 4)
	fast := &Loopback{Server: &Server{}, Label: "fast"}
	slow := &delayedWorker{inner: &Loopback{Server: &Server{}, Label: "straggler"}, release: stragglerDeadline(t)}
	s := New(c, fast, slow)
	s.ShipBlocks = true
	s.SpeculateAfter = 10 * time.Millisecond
	s.Logf = t.Logf
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "elastic-speculation", got)
	if n := s.Stats.Speculations.Load(); n < 1 {
		t.Fatalf("no speculation launched against a held straggler (got %d)", n)
	}
	if n := s.Stats.SpecWins.Load(); n < 1 {
		t.Fatalf("speculative copies never beat the straggler (got %d wins)", n)
	}
}

// divergingWorker swaps the shipped blocks for a shadow corpus whose
// record counts are identical but whose contents differ: the returned
// state passes the record-count cross-check but is wrong — the canned
// nondeterminism speculation's cross-check must catch. Its first
// evaluation is held until the scheduler cancels it (an honest
// speculative copy won) or release closes, and then still returns its
// divergent state, so the late duplicate always meets the cross-check.
type divergingWorker struct {
	inner   *Loopback
	shadow  *core.Corpus
	release <-chan struct{}
	held    atomic.Bool
}

func (w *divergingWorker) Name() string { return w.inner.Name() + "-evil" }
func (w *divergingWorker) Eval(ctx context.Context, body []byte) ([]byte, error) {
	if w.held.CompareAndSwap(false, true) {
		select {
		case <-ctx.Done():
		case <-w.release:
		}
	}
	var req EvalRequest
	if err := cbor.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	for k := range w.shadow.Manifest.Partitions {
		if w.shadow.Manifest.Partitions[k].Base == req.Base {
			blocks, err := ReadPartitionBlocks(w.shadow, k)
			if err != nil {
				return nil, err
			}
			req.Blocks = blocks
			break
		}
	}
	mutated, err := cbor.Marshal(&req)
	if err != nil {
		return nil, err
	}
	return w.inner.Eval(context.WithoutCancel(ctx), mutated)
}

// shadowCorpus writes a corpus structurally identical to the test
// corpus (same counts everywhere) with mutated post engagement in
// every quarter of the dataset.
func shadowCorpus(t *testing.T, n int) *core.Corpus {
	t.Helper()
	ds2 := synth.Generate(synth.Config{Scale: 2000, Seed: 42})
	for i := 0; i < len(ds2.Posts); i += len(ds2.Posts)/8 + 1 {
		ds2.Posts[i].Likes += 100
	}
	parts, m := core.Split(ds2, n)
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	c, err := core.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestElasticSpeculativeDivergenceFailsRun pins the validity rule:
// when a speculative duplicate and the accepted result disagree, the
// run must fail loudly — never silently pick one.
func TestElasticSpeculativeDivergenceFailsRun(t *testing.T) {
	c := spillN(t, 4)
	honest := &Loopback{Server: &Server{}, Label: "honest"}
	evil := &divergingWorker{
		inner:   &Loopback{Server: &Server{}, Label: "evil"},
		shadow:  shadowCorpus(t, 4),
		release: stragglerDeadline(t),
	}
	s := New(c, honest, evil)
	s.ShipBlocks = true
	s.SpeculateAfter = 10 * time.Millisecond
	s.Logf = t.Logf
	_, err := s.RunAll(2)
	if err == nil {
		t.Fatal("divergent speculative duplicate did not fail the run")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergence error = %v, want it to name the divergence", err)
	}
}

// ---- elastic scheduler: dynamic splitting ----

// TestElasticSplitParity forces every partition through the dynamic
// splitting path (a sub-median SplitFactor marks them all skewed) and
// requires the sub-range evaluations to fold back byte-identical to
// the golden — the remote counterpart of the split-parity contract —
// in both shipping modes.
func TestElasticSplitParity(t *testing.T) {
	for _, ship := range []bool{false, true} {
		c := spillN(t, 4)
		s := New(c,
			&Loopback{Server: &Server{}, Label: "w0"},
			&Loopback{Server: &Server{}, Label: "w1"},
		)
		s.ShipBlocks = ship
		s.SplitFactor = 0.5
		s.Logf = t.Logf
		got, err := s.RunAll(2)
		if err != nil {
			t.Fatalf("ship=%v: %v", ship, err)
		}
		compareToGolden(t, "elastic-split", got)
		if n := s.Stats.Splits.Load(); n != 4 {
			t.Fatalf("ship=%v: %d partitions split, want all 4", ship, n)
		}
	}
}

// TestElasticSplitSinglePartition pins the guard: a one-partition
// corpus has no sibling median to call it skewed against, so it never
// splits regardless of the factor.
func TestElasticSplitSinglePartition(t *testing.T) {
	c := spillN(t, 1)
	s := New(c, &Loopback{Server: &Server{}, Label: "w0"})
	s.ShipBlocks = true
	s.SplitFactor = 0.01
	s.Logf = t.Logf
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "elastic-split-single", got)
	if s.Stats.Splits.Load() != 0 {
		t.Fatal("single-partition corpus split")
	}
}

// ---- elastic scheduler: chaos matrix ----

// TestElasticChaosMatrix is the satellite CI scenario run in-process:
// two workers where one dies after its first evaluation and the other
// holds its first evaluation (straggler), with stealing, speculation, and
// splitting all enabled — across both shipping modes the output must
// remain byte-identical to the golden.
func TestElasticChaosMatrix(t *testing.T) {
	for _, ship := range []bool{false, true} {
		c := spillN(t, 8)
		dying := &dyingWorker{inner: &Loopback{Server: &Server{}, Label: "dying"}, dead: make(chan struct{})}
		dying.left.Store(1)
		// The straggler's first unit is held until a speculative copy
		// beats it or its only peer has died.
		slow := &delayedWorker{inner: &Loopback{Server: &Server{}, Label: "slow"}, release: dying.dead}
		s := New(c, dying, slow)
		s.ShipBlocks = ship
		s.SpeculateAfter = 60 * time.Millisecond
		s.SplitFactor = 0.5
		s.Logf = t.Logf
		got, err := s.RunAll(2)
		if err != nil {
			t.Fatalf("ship=%v: %v", ship, err)
		}
		compareToGolden(t, "elastic-chaos", got)
	}
}

// TestElasticStatsSummary smoke-checks the stats line renders every
// counter (the cmd layer prints it after distributed runs).
func TestElasticStatsSummary(t *testing.T) {
	c := spillN(t, 2)
	s := New(c, &Loopback{Server: &Server{}, Label: "w0"})
	s.ShipBlocks = true
	s.Logf = t.Logf
	if _, err := s.RunAll(2); err != nil {
		t.Fatal(err)
	}
	sum := s.Stats.Summary()
	for _, field := range []string{"evals=", "local=", "steals=", "speculations=", "spec-wins=", "spec-dups=", "splits=", "cache-hits=", "cache-misses=", "shipped-bytes="} {
		if !strings.Contains(sum, field) {
			t.Fatalf("summary %q lacks %s", sum, field)
		}
	}
	if strings.Contains(sum, "prefetches=") {
		t.Fatalf("summary %q still reports prefetches", sum)
	}
	if !strings.Contains(sum, "evals=2") {
		t.Fatalf("summary %q: want evals=2", sum)
	}
}

// TestSubPartitionInfosContiguity pins the split arithmetic the
// sub-range units rely on: sub-bases are contiguous corpus-global
// prefix sums and the sub-records sum to the parent's.
func TestSubPartitionInfosContiguity(t *testing.T) {
	c := spillN(t, 2)
	parent := c.Manifest.Partitions[1]
	for _, n := range []int{2, 3, 5} {
		subs := core.SubPartitionInfos(parent, n)
		if len(subs) != n {
			t.Fatalf("n=%d: got %d subs", n, len(subs))
		}
		var sum core.CollectionCounts
		base := parent.Base
		for j, sub := range subs {
			if sub.Base != base {
				t.Fatalf("n=%d sub %d: base %+v, want %+v", n, j, sub.Base, base)
			}
			base.Add(sub.Records)
			sum.Add(sub.Records)
		}
		if sum != parent.Records {
			t.Fatalf("n=%d: sub records sum %+v, want %+v", n, sum, parent.Records)
		}
		// The row-range of the first sub carries the facts exactly once.
		r0 := core.SubRowRange(parent, subs[0], true)
		r1 := core.SubRowRange(parent, subs[1], false)
		if !r0.Facts || r1.Facts {
			t.Fatal("facts must ride on exactly the first sub-range")
		}
	}
}

// ---- elastic scheduler: content-hash cache keys ----

// TestElasticCrossCorpusCacheSharing pins the content-hash cache
// addressing: a *different* corpus (new manifest identity, so a new
// fingerprint) whose partition bytes are identical must warm-hit the
// worker caches filled by the first corpus — the keys address the
// partition content, not the corpus that shipped it.
func TestElasticCrossCorpusCacheSharing(t *testing.T) {
	cache, _ := NewBlockCache("", 1<<30)
	w := &Loopback{Server: &Server{Cache: cache}, Label: "w0"}

	a := spillN(t, 4)
	cold := New(a, w)
	cold.ShipBlocks = true
	cold.Logf = t.Logf
	got, err := cold.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "cross-corpus-cold", got)
	if cold.Stats.ShippedBytes.Load() == 0 {
		t.Fatal("cold run shipped nothing")
	}

	// Corpus B: byte-identical partition files under a manifest with a
	// different seed — a re-registered copy of the same data. Its
	// fingerprint differs, so fingerprint-scoped keys could never hit.
	dirB := t.TempDir()
	for k := range a.Manifest.Partitions {
		data, err := os.ReadFile(filepath.Join(a.Dir, core.PartitionFileName(k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dirB, core.PartitionFileName(k)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2 := *a.Manifest
	m2.Partitions = append([]core.PartitionInfo(nil), a.Manifest.Partitions...)
	m2.Seed = a.Manifest.Seed + 1
	if err := core.WriteManifest(dirB, &m2); err != nil {
		t.Fatal(err)
	}
	b, err := core.OpenCorpus(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Fingerprint() == a.Manifest.Fingerprint() {
		t.Fatal("corpus B has corpus A's fingerprint; the test would prove nothing")
	}

	warm := New(b, w)
	warm.ShipBlocks = true
	warm.SpeculateAfter = 5 * time.Second
	warm.Logf = t.Logf
	got, err = warm.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "cross-corpus-warm", got)
	if hits := warm.Stats.CacheHits.Load(); hits < 4 {
		t.Fatalf("cross-corpus warm run served %d cache hits, want ≥ 4 (one per partition)", hits)
	}
	if shipped := warm.Stats.ShippedBytes.Load(); shipped != 0 {
		t.Fatalf("cross-corpus warm run shipped %d bytes; content-hash keys should serve every unit", shipped)
	}
}

// TestElasticSplitShipSliced pins the sliced-ship satellite: a run
// that splits every partition must ship *slices* — total payload bytes
// strictly below the whole corpus (the old code re-shipped the whole
// parent payload once per sub-unit, i.e. ≥ 2× corpus here) — and stay
// byte-identical to the golden.
func TestElasticSplitShipSliced(t *testing.T) {
	c := spillN(t, 4)
	var full int64
	for k := range c.Manifest.Partitions {
		blocks, err := ReadPartitionBlocks(c, k)
		if err != nil {
			t.Fatal(err)
		}
		full += int64(len(blocks))
	}
	s := New(c,
		&Loopback{Server: &Server{}, Label: "w0"},
		&Loopback{Server: &Server{}, Label: "w1"},
	)
	s.ShipBlocks = true
	s.SplitFactor = 0.5
	s.SpeculateAfter = 5 * time.Second
	s.Logf = t.Logf
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "elastic-split-sliced", got)
	if n := s.Stats.Splits.Load(); n != 4 {
		t.Fatalf("%d partitions split, want all 4", n)
	}
	shipped := s.Stats.ShippedBytes.Load()
	if shipped == 0 || shipped >= full {
		t.Fatalf("split run shipped %d bytes against a %d-byte corpus; sub-units must ship compressed slices, not parent payloads", shipped, full)
	}
}
