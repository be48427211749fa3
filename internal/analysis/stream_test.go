package analysis

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"blueskies/internal/core"
	"blueskies/internal/crawl"
	"blueskies/internal/events"
	"blueskies/internal/pds"
	"blueskies/internal/synth"
	"blueskies/internal/xrpc"
)

// replayStream plays ds through fresh firehose + labeler sequencers
// and returns the multiplexed block channel (pure backlog replay, so
// the per-collection record order is exactly the dataset order).
func replayStream(t *testing.T, ds *core.Dataset, blockSize int) (<-chan core.RecordBlock, <-chan error) {
	t.Helper()
	fire := events.NewSequencer(0, 0)
	labeler := events.NewSequencer(0, 0)
	if err := synth.Replay(ds, fire, labeler, blockSize); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return core.SequencerStream(context.Background(), fire, labeler)
}

func drainErrs(t *testing.T, errs <-chan error) {
	t.Helper()
	for err := range errs {
		t.Fatalf("stream error: %v", err)
	}
}

// TestStreamingParityGolden is the tentpole's acceptance gate: a
// generated dataset replayed through the sequencer stream must yield a
// final snapshot byte-identical to the batch RunAll, across snapshot
// intervals, replay block sizes, and worker counts.
func TestStreamingParityGolden(t *testing.T) {
	want := RunAll(ds, 1)
	for _, workers := range []int{1, 4} {
		batch := RunAll(ds, workers)
		for i := range want {
			if batch[i].String() != want[i].String() {
				t.Fatalf("batch workers=%d report %s differs from workers=1", workers, batch[i].ID)
			}
		}
		for _, cfg := range []struct {
			blockSize, snapshotEvery int
		}{
			{2048, 0},      // final snapshot only
			{2048, 10_000}, // frequent snapshots
			{512, 25_000},  // small frames
		} {
			blocks, errs := replayStream(t, ds, cfg.blockSize)
			snapshots := 0
			src := &StreamSource{
				Blocks:        blocks,
				SnapshotEvery: cfg.snapshotEvery,
				OnSnapshot: func(records int, reports []*Report) {
					snapshots++
					if len(reports) != len(canonicalOrder) {
						t.Errorf("snapshot at %d records has %d reports, want %d",
							records, len(reports), len(canonicalOrder))
					}
				},
			}
			got, err := NewFullEngine().Workers(workers).RunSource(src)
			if err != nil {
				t.Fatalf("workers=%d cfg=%+v: %v", workers, cfg, err)
			}
			drainErrs(t, errs)
			got = canonicalize(got)
			if len(got) != len(want) {
				t.Fatalf("workers=%d cfg=%+v: %d reports, want %d", workers, cfg, len(got), len(want))
			}
			for i, r := range got {
				if r.String() != want[i].String() {
					t.Errorf("workers=%d cfg=%+v: report %s differs from batch:\n--- stream ---\n%s\n--- batch ---\n%s",
						workers, cfg, r.ID, r.String(), want[i].String())
				}
			}
			if cfg.snapshotEvery > 0 && snapshots == 0 {
				t.Errorf("workers=%d cfg=%+v: no mid-run snapshots fired", workers, cfg)
			}
		}
	}
}

// TestStreamingWorldCounts checks the streaming world reconstructs the
// corpus facts without materializing it: after a full replay the world
// must report exactly the dataset's record counts and header facts.
func TestStreamingWorldCounts(t *testing.T) {
	blocks, errs := replayStream(t, ds, 2048)
	src := &StreamSource{Blocks: blocks}
	world, _, _, err := src.Run(NewFullEngine().accs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	drainErrs(t, errs)
	if world.Users != len(ds.Users) || world.Posts != len(ds.Posts) ||
		world.Days != len(ds.Daily) || world.Labels != len(ds.Labels) ||
		world.FeedGens != len(ds.FeedGens) || world.Domains != len(ds.Domains) ||
		world.HandleUpdates != len(ds.HandleUpdates) {
		t.Fatalf("world counts diverge: %+v", world)
	}
	if world.Scale != ds.Scale || world.Firehose != ds.Firehose || len(world.Labelers) != len(ds.Labelers) {
		t.Fatal("world header facts diverge")
	}
	for i := range ds.Users {
		if world.Followers(i) != ds.Users[i].Followers {
			t.Fatalf("follower degree of user %d diverges", i)
		}
	}
}

// TestCollectorStreamParity exercises the full live path: an XRPC
// server exposes the firehose and one labeler stream over WebSockets,
// Collector.Stream multiplexes the subscriptions into record blocks,
// and the engine's final snapshot must equal the batch evaluation.
func TestCollectorStreamParity(t *testing.T) {
	fire := events.NewSequencer(0, 0)
	labeler := events.NewSequencer(0, 0)
	if err := synth.Replay(ds, fire, labeler, 2048); err != nil {
		t.Fatal(err)
	}
	mux := xrpc.NewMux()
	mux.Stream("com.atproto.sync.subscribeRepos", func(w http.ResponseWriter, r *http.Request) {
		pds.ServeStream(fire, w, r)
	})
	mux.Stream("com.atproto.label.subscribeLabels", func(w http.ResponseWriter, r *http.Request) {
		pds.ServeStream(labeler, w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	col := &crawl.Collector{RelayURL: srv.URL, LabelerURLs: []string{srv.URL}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, errs := col.Stream(ctx)
	got, err := NewFullEngine().Workers(2).RunSource(&StreamSource{Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	drainErrs(t, errs)
	got = canonicalize(got)
	want := RunAll(ds, 4)
	if len(got) != len(want) {
		t.Fatalf("%d reports, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.String() != want[i].String() {
			t.Errorf("report %s differs between collector stream and batch", r.ID)
		}
	}
}

// TestCollectorStreamPrimaryFailure pins the failure mode of the
// multiplexing gate: when the firehose endpoint is unreachable, the
// labeler consumers must shut down instead of feeding labels nobody
// announced, the block channel must close (no hang), and the error
// must surface.
func TestCollectorStreamPrimaryFailure(t *testing.T) {
	labeler := events.NewSequencer(0, 0)
	if _, err := labeler.Emit(func(s int64) any {
		e := core.LabelBlockEvent([]core.Label{{Src: "did:plc:l", URI: "did:plc:u", Val: "x"}})
		e.Seq = s
		return e
	}); err != nil {
		t.Fatal(err)
	}
	mux := xrpc.NewMux()
	mux.Stream("com.atproto.label.subscribeLabels", func(w http.ResponseWriter, r *http.Request) {
		pds.ServeStream(labeler, w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	col := &crawl.Collector{RelayURL: "http://127.0.0.1:1", LabelerURLs: []string{srv.URL}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, errs := col.Stream(ctx)
	for b := range blocks {
		t.Fatalf("block delivered despite dead firehose: %+v", b)
	}
	var got error
	for err := range errs {
		got = err
	}
	if got == nil {
		t.Fatal("firehose subscribe failure not reported")
	}
}

// TestStreamSourceEmptyStream pins the degenerate case: a closed,
// empty stream renders the zero-state reports without panicking.
func TestStreamSourceEmptyStream(t *testing.T) {
	blocks := make(chan core.RecordBlock)
	close(blocks)
	reports, err := NewFullEngine().RunSource(&StreamSource{Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no reports from empty stream")
	}
	for _, r := range reports {
		if r.ID == "" {
			t.Fatal("unrendered report")
		}
	}
}
