package sched

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blueskies/internal/analysis"
	"blueskies/internal/cbor"
	"blueskies/internal/core"
	"blueskies/internal/synth"
)

var testDS = sync.OnceValue(func() *core.Dataset {
	return synth.Generate(synth.Config{Scale: 2000, Seed: 42})
})

var goldenOnce = sync.OnceValue(func() []*analysis.Report {
	return analysis.RunAll(testDS(), 1)
})

// spillN splits the test corpus into n partitions and writes it as a
// store under a fresh temp dir.
func spillN(t *testing.T, n int) *core.Corpus {
	t.Helper()
	parts, m := core.Split(testDS(), n)
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

func compareToGolden(t *testing.T, label string, got []*analysis.Report) {
	t.Helper()
	want := goldenOnce()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: report %d is %s, want %s", label, i, got[i].ID, want[i].ID)
		}
		if got[i].String() != want[i].String() {
			t.Errorf("%s: report %s differs:\n--- got ---\n%s\n--- want ---\n%s",
				label, got[i].ID, got[i].String(), want[i].String())
		}
	}
}

// TestRemoteParityGolden is the tentpole's acceptance gate: loopback
// remote evaluation — in-process workers serving all partitions
// through the full request/state wire codecs — must be byte-identical
// to the local disk-backed golden for n ∈ {1,2,4,8}, in both shipping
// modes (store reference and streamed block frames).
func TestRemoteParityGolden(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		c := spillN(t, n)
		for _, ship := range []bool{false, true} {
			s := New(c,
				&Loopback{Server: &Server{}, Label: "w0"},
				&Loopback{Server: &Server{}, Label: "w1"},
			)
			s.ShipBlocks = ship
			got, err := s.RunAll(2)
			if err != nil {
				t.Fatalf("n=%d ship=%v: %v", n, ship, err)
			}
			label := "remote-store"
			if ship {
				label = "remote-ship"
			}
			compareToGolden(t, fmt.Sprintf("%s n=%d", label, n), got)
		}
	}
}

// TestRemoteParityHTTP runs the full network path: two bskyworker
// servers on real sockets, partitions shipped as block frames over
// XRPC, state folded locally — byte-identical to the golden.
func TestRemoteParityHTTP(t *testing.T) {
	c := spillN(t, 4)
	w0 := &Server{}
	w1 := &Server{}
	ts0 := httptest.NewServer(w0.Mux())
	defer ts0.Close()
	ts1 := httptest.NewServer(w1.Mux())
	defer ts1.Close()
	s := New(c, Dial(ts0.URL), Dial(ts1.URL))
	s.ShipBlocks = true
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "remote-http", got)
	// At least one evaluation per partition; speculation may add
	// byte-identical duplicates under scheduler jitter.
	if w0.Evals()+w1.Evals() < 4 {
		t.Fatalf("workers served %d+%d evaluations, want ≥ 4", w0.Evals(), w1.Evals())
	}
}

// dyingWorker serves a limited number of evaluations, then fails every
// call — a worker killed mid-run. A non-nil dead closes at the first
// refused call.
type dyingWorker struct {
	inner Worker
	left  atomic.Int64
	dead  chan struct{}
	once  sync.Once
}

func (w *dyingWorker) Name() string { return w.inner.Name() + "-dying" }

func (w *dyingWorker) Eval(ctx context.Context, req []byte) ([]byte, error) {
	if w.left.Add(-1) < 0 {
		if w.dead != nil {
			w.once.Do(func() { close(w.dead) })
		}
		return nil, errors.New("worker killed")
	}
	return w.inner.Eval(ctx, req)
}

// TestRemoteWorkerDiesMidRun is the failure half of the acceptance
// gate: a worker that dies after its first evaluation must be retired,
// its partitions retried on the surviving worker, and the output must
// stay byte-identical to the golden.
func TestRemoteWorkerDiesMidRun(t *testing.T) {
	c := spillN(t, 8)
	dying := &dyingWorker{inner: &Loopback{Server: &Server{}, Label: "w0"}}
	dying.left.Store(1)
	s := New(c, dying, &Loopback{Server: &Server{}, Label: "w1"})
	s.Logf = t.Logf
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "worker-death", got)
}

// TestRemoteAllWorkersDeadFallsBackLocal pins the last line of
// defense: with every worker dead the scheduler evaluates partitions
// locally out of core, still byte-identical; with NoFallback it
// surfaces the per-worker failure summary instead.
func TestRemoteAllWorkersDeadFallsBackLocal(t *testing.T) {
	c := spillN(t, 4)
	dead := func(name string) Worker {
		w := &dyingWorker{inner: &Loopback{Server: &Server{}, Label: name}}
		return w // left starts at 0: dead from the first call
	}
	s := New(c, dead("w0"), dead("w1"))
	s.Logf = t.Logf
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "all-dead-fallback", got)

	s2 := New(c, dead("w0"))
	s2.Logf = t.Logf
	s2.NoFallback = true
	if _, err := s2.RunAll(2); err == nil || !strings.Contains(err.Error(), "failed on every worker") {
		t.Fatalf("NoFallback run returned %v, want per-worker failure summary", err)
	}
}

// TestRemoteCorruptPartitionFailsRun mirrors the disk error-path test
// across the wire: a corrupt block file must fail the remote run with
// a diagnostic (the worker refuses it, the fallback refuses it too).
func TestRemoteCorruptPartitionFailsRun(t *testing.T) {
	c := spillN(t, 2)
	path := filepath.Join(c.Dir, core.PartitionFileName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x5A
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(c, &Loopback{Server: &Server{}})
	s.Logf = t.Logf
	if _, err := s.RunAll(1); err == nil {
		t.Fatal("corrupt partition evaluated without error through the remote path")
	}
}

// TestWorkerStoreRoot pins the daemon's path restriction: a store
// outside -store-root is refused, one under it is served.
func TestWorkerStoreRoot(t *testing.T) {
	c := spillN(t, 1)
	srv := &Server{StoreRoot: c.Dir}
	s := New(c, &Loopback{Server: srv})
	s.NoFallback = true
	if _, err := s.RunAll(1); err != nil {
		t.Fatalf("store under root refused: %v", err)
	}
	outside := &Server{StoreRoot: t.TempDir()}
	s2 := New(c, &Loopback{Server: outside})
	s2.Logf = t.Logf
	s2.NoFallback = true
	if _, err := s2.RunAll(1); err == nil {
		t.Fatal("store outside the worker's root served without error")
	}
}

// TestRemoteOversizedShipFallsBackPerPartition pins the ship-bound
// semantics: a partition too big to ship degrades to local evaluation
// by itself — the fleet stays healthy and keeps serving the rest.
func TestRemoteOversizedShipFallsBackPerPartition(t *testing.T) {
	c := spillN(t, 4)
	w0 := &Server{}
	w1 := &Server{}
	s := New(c, &Loopback{Server: w0, Label: "w0"}, &Loopback{Server: w1, Label: "w1"})
	s.ShipBlocks = true
	s.Logf = t.Logf
	// Below every partition's framed size: every request exceeds the
	// bound, so every partition must fall back locally with the fleet
	// untouched — and the output must still match the golden.
	s.shipLimit = 64
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "oversized-ship", got)
	if !s.isHealthy(0) || !s.isHealthy(1) {
		t.Fatal("oversized partitions retired healthy workers")
	}
	if w0.Evals()+w1.Evals() != 0 {
		t.Fatal("oversized requests reached the workers")
	}

	s2 := New(c, &Loopback{Server: &Server{}})
	s2.ShipBlocks = true
	s2.NoFallback = true
	s2.shipLimit = 64
	if _, err := s2.RunAll(1); err == nil || !strings.Contains(err.Error(), "ship bound") {
		t.Fatalf("NoFallback oversized run returned %v, want ship-bound error", err)
	}
}

// TestSchedulerStructLiteral pins zero-value usability: a Scheduler
// built as a struct literal (every configuration field is exported)
// must still place work on its workers, exactly like one from New.
func TestSchedulerStructLiteral(t *testing.T) {
	c := spillN(t, 2)
	w := &Server{}
	s := &Scheduler{Corpus: c, Workers: []Worker{&Loopback{Server: w}}}
	got, err := s.RunAll(1)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "struct-literal", got)
	if w.Evals() != 2 {
		t.Fatalf("literal-built scheduler served %d evaluations on its worker, want 2", w.Evals())
	}
}

// TestWorkerRejectsHostileRequests pins the worker's request
// validation: garbage bytes, future protocol versions, fingerprint
// mismatches, and double-sourced requests all error, never panic.
func TestWorkerRejectsHostileRequests(t *testing.T) {
	srv := &Server{}
	if _, err := srv.EvalPartition([]byte("not cbor at all")); err == nil {
		t.Error("garbage request accepted")
	}
	encode := func(mutate func(*EvalRequest)) []byte {
		req := &EvalRequest{Version: ProtocolVersion, Store: t.TempDir(), Accs: analysis.NewFullEngine().Fingerprint()}
		mutate(req)
		data, err := cbor.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"future version": encode(func(r *EvalRequest) { r.Version = ProtocolVersion + 1 }),
		"fingerprint":    encode(func(r *EvalRequest) { r.Accs = []string{"T1"} }),
		"both sources":   encode(func(r *EvalRequest) { r.Blocks = []byte{1} }),
		"no source":      encode(func(r *EvalRequest) { r.Store = "" }),
	}
	for name, data := range cases {
		if _, err := srv.EvalPartition(data); err == nil {
			t.Errorf("%s: hostile request accepted", name)
		}
	}
}

// staleWorker simulates a daemon built before ProtocolVersion 2: it
// accepts only version-1 requests, the way that build's version gate
// did, and rejects everything the current scheduler sends.
type staleWorker struct{ inner Worker }

func (w *staleWorker) Name() string { return w.inner.Name() + "-stale" }

func (w *staleWorker) Eval(ctx context.Context, body []byte) ([]byte, error) {
	var req EvalRequest
	if err := cbor.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.Version != 1 {
		return nil, fmt.Errorf("protocol version %d not supported (worker speaks ≤ 1)", req.Version)
	}
	return w.inner.Eval(ctx, body)
}

// TestStoreModeRetiresIncompatibleWorker pins the loud failure of a
// stale daemon: its first request is refused, it is retired with the
// refusal in the log, and the rest of the fleet absorbs its share —
// byte-identical to the golden. Alone, it leaves the run to the local
// fallback, still byte-identical.
func TestStoreModeRetiresIncompatibleWorker(t *testing.T) {
	c := spillN(t, 4)
	oldSrv, curSrv := &Server{}, &Server{}
	old := &staleWorker{inner: &Loopback{Server: oldSrv, Label: "w0"}}
	var mu sync.Mutex
	var logs []string
	s := New(c, old, &Loopback{Server: curSrv, Label: "w1"})
	s.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "store-retire", got)
	if oldSrv.Evals() != 0 {
		t.Fatalf("stale worker served %d evaluations, want 0", oldSrv.Evals())
	}
	if curSrv.Evals() != 4 {
		t.Fatalf("surviving worker served %d evaluations, want 4", curSrv.Evals())
	}
	if s.isHealthy(0) {
		t.Fatal("stale worker was not retired")
	}
	mu.Lock()
	joined := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "event=retire") || !strings.Contains(joined, "protocol version") {
		t.Fatalf("retirement log does not name the protocol mismatch:\n%s", joined)
	}

	s2 := New(c, &staleWorker{inner: &Loopback{Server: &Server{}, Label: "w0"}})
	s2.Logf = t.Logf
	got2, err := s2.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "store-retire-fallback", got2)
}

// recordingWorker notes, for every request it forwards, the protocol
// version and the block-file header version of any shipped payload.
type recordingWorker struct {
	inner Worker

	mu        sync.Mutex
	protocols []int
	formats   []int
}

func (w *recordingWorker) Name() string { return w.inner.Name() + "-recording" }

func (w *recordingWorker) Eval(ctx context.Context, body []byte) ([]byte, error) {
	var req EvalRequest
	if err := cbor.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.protocols = append(w.protocols, req.Version)
	if len(req.Blocks) >= 12 {
		w.formats = append(w.formats, int(binary.BigEndian.Uint32(req.Blocks[8:12])))
	}
	w.mu.Unlock()
	return w.inner.Eval(ctx, body)
}

// TestShipBlocksDowngradeParity pins that shipping mode has no
// downgrade path: a worker gets each partition's blocks at the store's
// format, never transcoded, serves every partition itself, stays
// healthy, and the folded output stays byte-identical to the golden.
func TestShipBlocksDowngradeParity(t *testing.T) {
	c := spillN(t, 4)
	srv := &Server{}
	w := &recordingWorker{inner: &Loopback{Server: srv, Label: "w0"}}
	s := New(c, w)
	s.ShipBlocks = true
	s.Logf = t.Logf
	got, err := s.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "ship-single-format", got)
	if srv.Evals() != 4 {
		t.Fatalf("worker served %d evaluations, want 4 (fallback stole its work)", srv.Evals())
	}
	if !s.isHealthy(0) {
		t.Fatal("shipping worker was retired")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.formats) != 4 {
		t.Fatalf("worker received %d shipped payloads, want 4", len(w.formats))
	}
	for _, v := range w.formats {
		if v != core.DiskFormatVersion {
			t.Fatalf("worker received format-v%d blocks, want v%d as stored", v, core.DiskFormatVersion)
		}
	}
}

// TestWorkerFormatResolution pins that nothing is resolved per worker:
// a plain Worker, with no capability methods, gets every request
// stamped ProtocolVersion in both shipping modes, and cache keys name
// the build's one block format in the same text ("…/v3") the
// format-keyed cache used, so warm caches keep hitting.
func TestWorkerFormatResolution(t *testing.T) {
	if got, want := CacheKey("fp", 7), fmt.Sprintf("fp/7/v%d", core.DiskFormatVersion); got != want {
		t.Fatalf("CacheKey = %q, want %q", got, want)
	}
	c := spillN(t, 2)
	for _, ship := range []bool{false, true} {
		w := &recordingWorker{inner: &Loopback{Server: &Server{}, Label: "w0"}}
		s := New(c, w)
		s.ShipBlocks = ship
		s.NoFallback = true
		got, err := s.RunAll(1)
		if err != nil {
			t.Fatalf("ship=%v: %v", ship, err)
		}
		compareToGolden(t, fmt.Sprintf("plain-worker ship=%v", ship), got)
		w.mu.Lock()
		if len(w.protocols) == 0 {
			t.Errorf("ship=%v: no request reached the worker", ship)
		}
		for _, v := range w.protocols {
			if v != ProtocolVersion {
				t.Errorf("ship=%v: request stamped protocol version %d, want %d", ship, v, ProtocolVersion)
			}
		}
		w.mu.Unlock()
	}
}

// TestWorkerRejectsStaleProtocol pins the worker side of the protocol
// bump: a ProtocolVersion 1 request — what a scheduler built before
// the single block format sends — is refused with an error naming the
// version, never evaluated or cached.
func TestWorkerRejectsStaleProtocol(t *testing.T) {
	c := spillN(t, 1)
	blocks, err := ReadPartitionBlocks(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := NewBlockCache("", 1<<30)
	srv := &Server{Cache: cache}
	info := c.Manifest.Partitions[0]
	eval := mustCBOR(t, &EvalRequest{Version: 1, Base: info.Base, Records: &info.Records, Blocks: blocks, CacheKey: "k"})
	if _, err := srv.EvalPartition(eval); err == nil || !strings.Contains(err.Error(), "protocol version 1") {
		t.Errorf("version-1 eval request: got %v, want a protocol-version rejection", err)
	}
	if srv.Evals() != 0 || cache.Bytes() != 0 {
		t.Fatalf("stale request left a trace: %d evals, %d cached bytes", srv.Evals(), cache.Bytes())
	}
}
