package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"blueskies/internal/events"
)

func ts(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

// TestBlockEventRoundTrip pins the sim-block wire codec: every record
// field — including sub-millisecond timestamps, which the protocol's
// string timestamps would truncate — must survive encode/decode.
func TestBlockEventRoundTrip(t *testing.T) {
	in := &RecordBlock{
		Header: &StreamHeader{
			Scale:         1000,
			WindowStart:   ts("2024-03-06T00:00:00Z"),
			WindowEnd:     ts("2024-05-01T00:00:00Z"),
			Firehose:      EventCounts{Commits: 4, Identity: 3, Handle: 2, Tombstone: 1},
			NonBskyEvents: 7,
		},
		Labelers: []Labeler{{
			DID: "did:plc:labeler0", Name: "L", Official: true, Values: []string{"a", "b"},
			Announced: ts("2024-03-15T00:00:00Z"), Functional: true, Active: true,
			Hosting: "cloud", Automated: true, Likes: 9, Operator: "op", About: "about",
		}},
		Users: []User{{
			DID: "did:plc:u0", Handle: "u.bsky.social", DIDMethod: "plc", PDS: "pds1",
			Proof: ProofDNSTXT, CreatedAt: ts("2023-07-01T12:34:56.789123456Z"), Lang: "ja",
			Followers: 10, Following: 20, Posts: 3, Likes: 4, Reposts: 5, Blocks: 6, Deleted: true,
		}},
		Posts: []Post{{
			URI: "at://did:plc:u0/app.bsky.feed.post/1", AuthorIdx: 0, Lang: "ja",
			CreatedAt: ts("2024-04-01T01:02:03.000000004Z"),
			Likes:     2, Reposts: 1, HasMedia: true, AltText: true,
		}},
		Days: []DayActivity{{
			Date: ts("2024-04-02T00:00:00Z"), ActiveUsers: 100, Posts: 200, Likes: 300,
			Reposts: 40, Follows: 50, Blocks: 6, ActiveByLang: map[string]int{"en": 30, "ja": 40},
		}},
		FeedGens: []FeedGen{{
			URI: "at://did:plc:u0/app.bsky.feed.generator/g", CreatorIdx: 0, Platform: "Skyfeed",
			DisplayName: "g", Description: "d", Lang: "en", CreatedAt: ts("2023-09-09T00:00:00Z"),
			Likes: 11, Posts: 12, Reachable: true, Personalized: true,
			LabeledShare: 0.25, TopLabel: "spam",
		}},
		Domains: []Domain{{
			Name: "example.social", IANAID: 1068, RegistrarName: "NameCheap, Inc.",
			CCTLD: true, TrancoRank: 99, Subdomains: 12,
		}},
		HandleUpdates: []HandleUpdate{{
			DID: "did:plc:u0", NewHandle: "new.example.social", Time: ts("2024-04-20T10:00:00Z"),
		}},
	}
	ev, err := BlockEvent(in)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := events.Encode(ev)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := events.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	out, eof, err := DecodeStreamEvent(dec)
	if err != nil || eof {
		t.Fatalf("decode: err=%v eof=%v", err, eof)
	}
	if out.Header == nil || *out.Header != *in.Header {
		t.Fatalf("header diverges: %+v", out.Header)
	}
	if len(out.Users) != 1 || out.Users[0].DID != in.Users[0].DID ||
		!out.Users[0].CreatedAt.Equal(in.Users[0].CreatedAt) ||
		out.Users[0].Proof != ProofDNSTXT || !out.Users[0].Deleted {
		t.Fatalf("user diverges: %+v", out.Users[0])
	}
	if !out.Posts[0].CreatedAt.Equal(in.Posts[0].CreatedAt) || !out.Posts[0].AltText {
		t.Fatalf("post diverges (sub-ms timestamp?): %+v", out.Posts[0])
	}
	if out.Days[0].ActiveByLang["ja"] != 40 {
		t.Fatalf("day diverges: %+v", out.Days[0])
	}
	if out.FeedGens[0].LabeledShare != 0.25 || !out.FeedGens[0].LastPost.IsZero() {
		t.Fatalf("feedgen diverges: %+v", out.FeedGens[0])
	}
	if out.Domains[0] != in.Domains[0] {
		t.Fatalf("domain diverges: %+v", out.Domains[0])
	}
	if out.HandleUpdates[0].DID != in.HandleUpdates[0].DID ||
		!out.HandleUpdates[0].Time.Equal(in.HandleUpdates[0].Time) {
		t.Fatalf("handle update diverges: %+v", out.HandleUpdates[0])
	}
	if out.Labelers[0].Name != "L" || len(out.Labelers[0].Values) != 2 ||
		!out.Labelers[0].Announced.Equal(in.Labelers[0].Announced) {
		t.Fatalf("labeler diverges: %+v", out.Labelers[0])
	}
}

// TestLabelsEventRoundTrip pins the label-stream codec: every Label
// field — nanosecond Applied/SubjectCreated joins, zero times, the
// fresh-subject flag and every subject kind — survives a labels frame
// through events.Encode → events.Decode → DecodeStreamEvent exactly.
func TestLabelsEventRoundTrip(t *testing.T) {
	in := []Label{{
		Src: "did:plc:labeler0", URI: "at://did:plc:u0/app.bsky.feed.post/1",
		Val: "no-alt-text", Neg: false, Kind: SubjectPost,
		Applied:        ts("2024-04-01T00:00:00.123456789Z"),
		SubjectCreated: ts("2024-04-01T00:00:00.003456789Z"),
		FreshSubject:   true,
	}, {
		Src: "did:plc:other", URI: "did:plc:u1", Val: "spam", Neg: true,
		Kind: SubjectAccount, Applied: ts("2024-04-02T00:00:00Z"),
		SubjectCreated: ts("2024-03-01T00:00:00Z"),
	}, {
		Src: "did:plc:labeler0", URI: "at://did:plc:u2/app.bsky.actor.profile/self",
		Val: "nudity", Kind: SubjectMedia, Applied: ts("2024-04-03T00:00:00.000000001Z"),
		FreshSubject: true, // SubjectCreated left zero
	}, {
		Src: "did:plc:other", URI: "at://did:plc:u3/app.bsky.graph.list/l", Val: "!hide",
		Kind: SubjectOther, // Applied and SubjectCreated left zero
	}, {
		Src: "did:plc:other", URI: "did:plc:u4", Val: "", // no kind at all
	}}
	frame, err := events.Encode(LabelBlockEvent(in))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := events.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	out, eof, err := DecodeStreamEvent(dec)
	if err != nil || eof {
		t.Fatalf("decode: err=%v eof=%v", err, eof)
	}
	if out.Header != nil || len(out.Labelers) != 0 || out.Len() != len(in) || len(out.Labels) != len(in) {
		t.Fatalf("labels frame decoded to %+v", out)
	}
	for i := range in {
		if got := out.Labels[i]; !sameLabel(got, in[i]) {
			t.Fatalf("label %d diverges:\nin:  %+v\nout: %+v", i, in[i], got)
		}
	}
	if rt := out.Labels[0].ReactionTime(); rt != 120*time.Millisecond {
		t.Fatalf("reaction time lost precision: %v", rt)
	}
}

// sameLabel compares every Label field, times by instant and zeroness.
func sameLabel(a, b Label) bool {
	return a.Src == b.Src && a.URI == b.URI && a.Val == b.Val && a.Neg == b.Neg &&
		a.Kind == b.Kind && a.FreshSubject == b.FreshSubject &&
		a.Applied.Equal(b.Applied) && a.Applied.IsZero() == b.Applied.IsZero() &&
		a.SubjectCreated.Equal(b.SubjectCreated) && a.SubjectCreated.IsZero() == b.SubjectCreated.IsZero()
}

// TestLabelsFrameRejectsOtherRecords pins the labels frame's per-kind
// rule from the receive side: a labels frame may carry labels only, so
// one smuggling a header, labeler announcements or any other record
// collection is an error (the block-frame half of the rule is
// TestSimBlockRejectsInlineLabels).
func TestLabelsFrameRejectsOtherRecords(t *testing.T) {
	full := columnarTestBlock()
	for name, b := range map[string]*RecordBlock{
		"header":     {Header: full.Header, Labels: full.Labels},
		"labelers":   {Labelers: full.Labelers, Labels: full.Labels},
		"users":      {Users: full.Users, Labels: full.Labels},
		"posts":      {Posts: full.Posts},
		"everything": full,
	} {
		ev := &events.Sim{Kind: simKindLabels, Body: MarshalBlock(b)}
		if _, _, err := DecodeStreamEvent(ev); err == nil {
			t.Errorf("labels frame carrying %s accepted", name)
		}
	}
	ev := &events.Sim{Kind: simKindLabels, Body: MarshalBlock(&RecordBlock{Labels: full.Labels})}
	if _, _, err := DecodeStreamEvent(ev); err != nil {
		t.Fatalf("labels-only frame rejected: %v", err)
	}
}

// TestDecodeStreamEventLiveFrames pins the live-protocol mapping:
// handle events become HandleUpdate records, live labeler frames keep
// what their wire form carries (CTS, subject kind from the URI shape),
// and other firehose frames only bump the event counters.
func TestDecodeStreamEventLiveFrames(t *testing.T) {
	b, eof, err := DecodeStreamEvent(&events.Handle{
		Seq: 1, DID: "did:plc:u0", Handle: "new.example.org", Time: "2024-04-01T00:00:00.000Z",
	})
	if err != nil || eof {
		t.Fatalf("err=%v eof=%v", err, eof)
	}
	if len(b.HandleUpdates) != 1 || b.HandleUpdates[0].NewHandle != "new.example.org" ||
		b.Events.Handle != 1 {
		t.Fatalf("handle block = %+v", b)
	}
	b, _, err = DecodeStreamEvent(&events.Commit{Seq: 2})
	if err != nil || b.Events.Commits != 1 || b.Len() != 0 {
		t.Fatalf("commit block = %+v err=%v", b, err)
	}
	b, eof, err = DecodeStreamEvent(&events.Labels{Seq: 3, Labels: []events.Label{
		{Src: "did:plc:l", URI: "at://did:plc:u0/app.bsky.feed.post/1", Val: "spam", CTS: "2024-04-01T00:00:00.123Z"},
		{Src: "did:plc:l", URI: "did:plc:u0", Val: "rude", Neg: true, CTS: "not a time"},
	}})
	if err != nil || eof {
		t.Fatalf("live labels: err=%v eof=%v", err, eof)
	}
	want := []Label{
		{Src: "did:plc:l", URI: "at://did:plc:u0/app.bsky.feed.post/1", Val: "spam", Kind: SubjectPost,
			Applied: ts("2024-04-01T00:00:00.123Z")},
		{Src: "did:plc:l", URI: "did:plc:u0", Val: "rude", Neg: true, Kind: SubjectAccount},
	}
	if len(b.Labels) != len(want) || b.Len() != len(want) {
		t.Fatalf("live labels block = %+v", b)
	}
	for i := range want {
		if !sameLabel(b.Labels[i], want[i]) {
			t.Fatalf("live label %d = %+v, want %+v", i, b.Labels[i], want[i])
		}
	}
	if _, eof, _ := DecodeStreamEvent(EOFEvent()); !eof {
		t.Fatal("EOF marker not recognized")
	}
}

// TestForwardFrameGapDetection pins the lost-frame guard: a sequence
// gap after the first delivered frame must surface as an error, not
// silently thin the corpus; the initial gap (joining a stream
// mid-retention) stays legal.
func TestForwardFrameGapDetection(t *testing.T) {
	frame := func(seq int64) []byte {
		ev, err := BlockEvent(&RecordBlock{Users: []User{{DID: "did:plc:x"}}})
		if err != nil {
			t.Fatal(err)
		}
		ev.Seq = seq
		f, err := events.Encode(ev)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	out := make(chan RecordBlock, 8)
	ctx := context.Background()
	var lastSeq int64
	// Joining at seq 5 is fine (mid-retention start).
	if _, _, err := forwardFrame(ctx, frame(5), &lastSeq, out, func() {}, nil); err != nil {
		t.Fatalf("initial gap rejected: %v", err)
	}
	// 5 → 6 consecutive: fine. 6 → 9: frames 7–8 were dropped.
	if _, _, err := forwardFrame(ctx, frame(6), &lastSeq, out, func() {}, nil); err != nil {
		t.Fatalf("consecutive frame rejected: %v", err)
	}
	_, _, err := forwardFrame(ctx, frame(9), &lastSeq, out, func() {}, nil)
	if err == nil {
		t.Fatal("mid-stream gap not detected")
	}
	// The failure is typed so scenario assertions can dispatch on it.
	var gap *StreamGapError
	if !errors.As(err, &gap) {
		t.Fatalf("gap error %v is not a *StreamGapError", err)
	}
	if gap.Lost != 2 || gap.From != 6 || gap.To != 9 {
		t.Fatalf("gap = %+v, want Lost 2, From 6, To 9", gap)
	}
	// Duplicates (backfill overlap) stay silently skipped.
	if _, _, err := forwardFrame(ctx, frame(6), &lastSeq, out, func() {}, nil); err != nil {
		t.Fatalf("duplicate rejected: %v", err)
	}
}

// TestDrainSequencersTrimsBacklog pins the streaming memory contract:
// with a replay emitting concurrently, the draining consumer trims
// processed frames, so the sequencers end the run with an empty
// backlog instead of a full encoded copy of the corpus.
func TestDrainSequencersTrimsBacklog(t *testing.T) {
	fire := events.NewSequencer(0, 0)
	labeler := events.NewSequencer(0, 0)
	ds := &Dataset{Scale: 1}
	for i := 0; i < 5000; i++ {
		ds.Users = append(ds.Users, User{DID: "did:plc:u"})
		ds.Labels = append(ds.Labels, Label{Src: "did:plc:l", URI: "did:plc:u", Val: "x"})
	}
	blocks, errs := DrainSequencers(context.Background(), fire, labeler)
	replayErr := make(chan error, 1)
	go func() { replayErr <- replayDataset(ds, fire, labeler) }()
	var users, labels int
	for b := range blocks {
		users += len(b.Users)
		labels += len(b.Labels)
	}
	if err := <-replayErr; err != nil {
		t.Fatal(err)
	}
	for err := range errs {
		t.Fatal(err)
	}
	if users != 5000 || labels != 5000 {
		t.Fatalf("consumed %d users, %d labels; want 5000 each", users, labels)
	}
	if n := fire.BacklogLen(); n > 1 {
		t.Fatalf("firehose backlog retains %d frames after drain", n)
	}
	if n := labeler.BacklogLen(); n > 1 {
		t.Fatalf("labeler backlog retains %d frames after drain", n)
	}
}

// replayDataset is a minimal local replay (synth.Replay would import
// cycle into core tests): header+users on the firehose, labels on the
// labeler stream, EOF markers on both.
func replayDataset(ds *Dataset, fire, labeler *events.Sequencer) error {
	emit := func(seq *events.Sequencer, ev *events.Sim) error {
		_, err := seq.Emit(func(s int64) any { ev.Seq = s; return ev })
		return err
	}
	hdr, err := BlockEvent(&RecordBlock{Header: &StreamHeader{Scale: ds.Scale}})
	if err != nil {
		return err
	}
	if err := emit(fire, hdr); err != nil {
		return err
	}
	const chunk = 256
	for lo := 0; lo < len(ds.Users); lo += chunk {
		hi := min(lo+chunk, len(ds.Users))
		ev, err := BlockEvent(&RecordBlock{Users: ds.Users[lo:hi]})
		if err != nil {
			return err
		}
		if err := emit(fire, ev); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(ds.Labels); lo += chunk {
		hi := min(lo+chunk, len(ds.Labels))
		if err := emit(labeler, LabelBlockEvent(ds.Labels[lo:hi])); err != nil {
			return err
		}
	}
	if err := emit(fire, EOFEvent()); err != nil {
		return err
	}
	return emit(labeler, EOFEvent())
}

// TestSequencerStreamGate pins the subscription-ordering contract: the
// primary sequencer's first block must reach the consumer before any
// secondary-stream block, even when the secondary backlog is ready
// first.
func TestSequencerStreamGate(t *testing.T) {
	fire := events.NewSequencer(0, 0)
	labeler := events.NewSequencer(0, 0)
	// Labeler backlog filled first.
	if _, err := labeler.Emit(func(s int64) any {
		e := LabelBlockEvent([]Label{{Src: "did:plc:l", URI: "did:plc:u", Val: "x"}})
		e.Seq = s
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := labeler.Emit(func(s int64) any { e := EOFEvent(); e.Seq = s; return e }); err != nil {
		t.Fatal(err)
	}
	hdr, err := BlockEvent(&RecordBlock{Header: &StreamHeader{Scale: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fire.Emit(func(s int64) any { hdr.Seq = s; return hdr }); err != nil {
		t.Fatal(err)
	}
	if _, err := fire.Emit(func(s int64) any { e := EOFEvent(); e.Seq = s; return e }); err != nil {
		t.Fatal(err)
	}
	blocks, errs := SequencerStream(context.Background(), fire, labeler)
	first, ok := <-blocks
	if !ok {
		t.Fatal("no blocks")
	}
	if first.Header == nil || first.Header.Scale != 7 {
		t.Fatalf("first block is not the primary header: %+v", first)
	}
	n := 0
	for range blocks {
		n++
	}
	if n != 1 {
		t.Fatalf("expected exactly the label block after the header, got %d more", n)
	}
	for err := range errs {
		t.Fatal(err)
	}
}
