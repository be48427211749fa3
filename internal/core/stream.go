package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blueskies/internal/events"
)

// This file defines the record-stream side of the dataset model: the
// RecordBlock unit that streaming consumers (the analysis engine's
// StreamSource) ingest, the codec entry points that carry dataset
// records over sequencer frames, and the taps that turn live event
// streams into block channels. Batch producers materialize a Dataset; stream
// producers emit the same records as bounded blocks so a consumer
// never has to hold the corpus in memory.

// RecordBlock is one bounded batch of measurement records, the unit a
// streaming analysis consumes. Any subset of the fields may be set;
// records of each collection arrive in their canonical dataset order.
//
//wire:v1 fields=10
type RecordBlock struct {
	// Header carries the corpus-level facts; producers send it before
	// any records.
	Header *StreamHeader
	// Labelers extends the labeler population append-only. Producers
	// must announce a labeler before its first label so the stream's
	// DID index assigns the same indexes a batch traversal would.
	Labelers []Labeler

	Users         []User
	Posts         []Post
	Days          []DayActivity
	Labels        []Label
	FeedGens      []FeedGen
	Domains       []Domain
	HandleUpdates []HandleUpdate

	// Events counts raw firehose frames observed alongside the block
	// (live collection only; replays carry totals in the header).
	Events EventCounts
}

// Len returns the number of records in the block (header and labeler
// announcements excluded).
func (b *RecordBlock) Len() int {
	return len(b.Users) + len(b.Posts) + len(b.Days) + len(b.Labels) +
		len(b.FeedGens) + len(b.Domains) + len(b.HandleUpdates)
}

// StreamHeader is the corpus-level metadata of a record stream — the
// scalar facts a batch run reads off the materialized Dataset.
//
//wire:v1 fields=5
type StreamHeader struct {
	Scale                  int
	WindowStart, WindowEnd time.Time
	Firehose               EventCounts
	NonBskyEvents          int64
}

// Timestamps travel as UnixNano so replayed records round-trip
// losslessly (the protocol's millisecond strings would truncate the
// sub-second reaction times of §6). Zero times encode as 0.

func nsOf(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func timeOf(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// The kinds of #sim.block frame: a block or labels frame's body is a
// v3 column block, the bytes a disk-store frame holds.
const (
	simKindBlock  = "block"
	simKindLabels = "labels"
	simKindEOF    = "eof"
)

// BlockEvent encodes a RecordBlock (labels excluded — see
// LabelBlockEvent) as a block frame. The sequencer assigns Seq at emit
// time.
func BlockEvent(b *RecordBlock) (*events.Sim, error) {
	if len(b.Labels) > 0 {
		return nil, fmt.Errorf("core: labels travel on labeler stream frames, not sim blocks")
	}
	return &events.Sim{Kind: simKindBlock, Body: MarshalBlock(b)}, nil
}

// LabelBlockEvent encodes one chunk of labels as the labels frame a
// replay emits on the labeler stream, every Label field lossless.
func LabelBlockEvent(ls []Label) *events.Sim {
	return &events.Sim{Kind: simKindLabels, Body: MarshalBlock(&RecordBlock{Labels: ls})}
}

// MarshalBlock encodes a RecordBlock to its canonical wire bytes — the
// same columnar encoding the disk-store frames and #sim.block events
// carry. Exported for carriers outside this package that need to ship
// dataset records losslessly (the remote-evaluation shard state embeds
// a header + labeler block this way).
func MarshalBlock(b *RecordBlock) []byte { return encodeColumnar(b) }

// UnmarshalBlock decodes one block payload: a frame's codec tag
// (possibly carrying the LZ compression bit) and the columnar body.
func UnmarshalBlock(data []byte) (*RecordBlock, error) {
	b, _, err := UnmarshalBlockDict(data, false)
	return b, err
}

// UnmarshalBlockDict is UnmarshalBlock optionally surfacing the
// columnar dictionary view for intern-table fusion. Any tag but the
// one format-v3 codec — including the retired v2 codecs 0x01 and 0x02
// — is an error.
func UnmarshalBlockDict(data []byte, wantDict bool) (*RecordBlock, *DictBlock, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("core: empty record block")
	}
	tag, body := data[0], data[1:]
	if tag&blockCodecLZ != 0 {
		inner, err := expandLZPayload(body)
		if err != nil {
			return nil, nil, err
		}
		tag, body = tag&^byte(blockCodecLZ), inner
	}
	if tag != blockCodecColumnar {
		return nil, nil, fmt.Errorf("core: record block carries unknown codec tag %#x", data[0])
	}
	var db *DictBlock
	if wantDict {
		db = &DictBlock{}
	}
	b, err := decodeColumnar(body, db)
	if err != nil {
		return nil, nil, fmt.Errorf("core: decode record block: %w", err)
	}
	return b, db, nil
}

// EOFEvent returns the end-of-stream marker a replay emits after its
// last record frame.
func EOFEvent() *events.Sim { return &events.Sim{Kind: simKindEOF} }

// labelFromWire maps a live labeler's #labels frame entry to a core
// label: what a live collector can derive (CTS, URI-shape subject
// kind). Replayed labels travel as labels frames instead.
func labelFromWire(l *events.Label) Label {
	out := Label{Src: l.Src, URI: l.URI, Val: l.Val, Neg: l.Neg, Kind: SubjectAccount}
	if t, err := events.ParseTime(l.CTS); err == nil {
		out.Applied = t
	}
	if len(l.URI) > 5 && l.URI[:5] == "at://" {
		out.Kind = SubjectPost
	}
	return out
}

// DecodeStreamEvent turns one decoded stream event into a RecordBlock.
// It returns eof=true on the replay end-of-stream marker; events that
// carry no records (info frames, commit payloads) yield a block with
// only Events counts set, and block=nil means "nothing to ingest".
//
// What a frame may carry is checked per kind, since a replay may
// multiplex both streams onto one: labels travel only in labels frames,
// behind the enumerate-before-consume gate (inline labels would bypass
// it and the per-partition label bases), and labels frames carry
// nothing else.
func DecodeStreamEvent(ev any) (block *RecordBlock, eof bool, err error) {
	switch e := ev.(type) {
	case *events.Sim:
		switch e.Kind {
		case simKindEOF:
			return nil, true, nil
		case simKindBlock, simKindLabels:
		default:
			return nil, false, fmt.Errorf("core: unknown sim frame kind %q", e.Kind)
		}
		b, err := UnmarshalBlock(e.Body)
		if err != nil {
			return nil, false, fmt.Errorf("core: decode sim %s frame: %w", e.Kind, err)
		}
		if e.Kind == simKindBlock && len(b.Labels) > 0 {
			return nil, false, fmt.Errorf("core: sim block carries inline labels; labels travel on labeler stream frames")
		}
		if e.Kind == simKindLabels && (b.Header != nil || len(b.Labelers) > 0 || b.Len() != len(b.Labels)) {
			return nil, false, fmt.Errorf("core: sim labels frame carries records other than labels")
		}
		return b, false, nil
	case *events.Labels:
		b := &RecordBlock{Labels: make([]Label, 0, len(e.Labels))}
		for i := range e.Labels {
			b.Labels = append(b.Labels, labelFromWire(&e.Labels[i]))
		}
		return b, false, nil
	case *events.Commit:
		return &RecordBlock{Events: EventCounts{Commits: 1}}, false, nil
	case *events.Identity:
		return &RecordBlock{Events: EventCounts{Identity: 1}}, false, nil
	case *events.Handle:
		b := &RecordBlock{Events: EventCounts{Handle: 1}}
		if t, err := events.ParseTime(e.Time); err == nil {
			b.HandleUpdates = []HandleUpdate{{DID: e.DID, NewHandle: e.Handle, Time: t}}
		} else {
			b.HandleUpdates = []HandleUpdate{{DID: e.DID, NewHandle: e.Handle}}
		}
		return b, false, nil
	case *events.Tombstone:
		return &RecordBlock{Events: EventCounts{Tombstone: 1}}, false, nil
	case *events.Info:
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("core: unexpected stream event %T", ev)
}

// StreamGate delays secondary stream consumers until the primary
// stream has delivered its first block — the "enumerate labelers
// before consuming their streams" ordering of the paper's methodology,
// applied to multiplexed subscriptions. A primary that ends without
// ever delivering a block aborts the gate so secondaries shut down
// instead of consuming labels nobody announced. SequencerStream and
// the live crawler's stream share it.
type StreamGate struct {
	ch   chan struct{}
	once sync.Once
	ok   bool
}

// NewStreamGate returns a closed gate.
func NewStreamGate() *StreamGate { return &StreamGate{ch: make(chan struct{})} }

// Open lets every waiter through; a no-op once aborted.
func (g *StreamGate) Open() { g.once.Do(func() { g.ok = true; close(g.ch) }) }

// Abort releases waiters with ok=false; a no-op once opened.
func (g *StreamGate) Abort() { g.once.Do(func() { close(g.ch) }) }

// Wait blocks until the gate opens; false means the primary aborted or
// ctx ended first.
func (g *StreamGate) Wait(ctx context.Context) bool {
	select {
	case <-g.ch:
		return g.ok
	case <-ctx.Done():
		return false
	}
}

// SequencerStream taps in-process sequencers directly and multiplexes
// their decoded record blocks into one channel — the zero-transport
// version of crawl.Collector.Stream used by replay tests and bskyanalyze
// -follow. The first sequencer is the primary (the firehose): the
// others are only tapped after its first block is delivered, so a
// replay's corpus header precedes every label that references an
// announced labeler; a primary that ends without delivering anything
// shuts the secondaries down. Each sequencer's retained backlog is
// drained first, then live frames, until its end-of-stream marker
// arrives or ctx is canceled; a sequence gap (frames the sequencer
// dropped past a slow consumer) is reported as an error rather than
// silently thinning the corpus. Beyond the gate, blocks of different
// sequencers interleave arbitrarily; each collection's records keep
// their emission order, which is all the analysis accumulators depend
// on.
func SequencerStream(ctx context.Context, seqs ...*events.Sequencer) (<-chan RecordBlock, <-chan error) {
	return sequencerStream(ctx, false, seqs)
}

// DrainSequencers is SequencerStream for pipelines that own their
// sequencers exclusively (no other subscribers, no cursor clients):
// frames are pulled from the backlog and trimmed as soon as they are
// processed, so a replay emitting concurrently with consumption keeps
// retention bounded by the consumer's lag instead of the whole encoded
// corpus — the memory contract of the streaming path. The live
// subscription is used only as a wake-up signal; records are always
// read from the backlog, so a slow consumer can never cause fan-out
// drops.
func DrainSequencers(ctx context.Context, seqs ...*events.Sequencer) (<-chan RecordBlock, <-chan error) {
	return sequencerStream(ctx, true, seqs)
}

func sequencerStream(ctx context.Context, drain bool, seqs []*events.Sequencer) (<-chan RecordBlock, <-chan error) {
	return sequencerStreamFaulted(ctx, drain, nil, seqs)
}

func sequencerStreamFaulted(ctx context.Context, drain bool, fs *FaultSchedule, seqs []*events.Sequencer) (<-chan RecordBlock, <-chan error) {
	out := make(chan RecordBlock, 8)
	errs := make(chan error, len(seqs))
	gate := NewStreamGate()
	var wg sync.WaitGroup
	for i, seq := range seqs {
		wg.Add(1)
		var faults *streamFaults
		if fs != nil {
			faults = &streamFaults{fs: fs, stream: i}
		}
		go func(seq *events.Sequencer, primary bool, faults *streamFaults) {
			defer wg.Done()
			if primary {
				defer gate.Abort()
			} else {
				if !gate.Wait(ctx) {
					return
				}
			}
			var lastSeq int64
			onForward := func() {
				if primary {
					gate.Open()
				}
			}
			if err := consumeSequencer(ctx, seq, drain, &lastSeq, out, onForward, faults); err != nil {
				errs <- err
			}
		}(seq, i == 0, faults)
	}
	go func() {
		wg.Wait()
		close(out)
		close(errs)
	}()
	return out, errs
}

// consumeSequencer forwards one sequencer's frames until end of
// stream. In drain mode frames are pulled from the backlog in chunks
// and trimmed once processed; otherwise the retained backlog is
// replayed and live frames followed via the subscription channel.
// The drain cursor is tracked separately from the gap detector's
// lastSeq: a frame a fault drops must still advance the pull position
// (and be trimmed), or Backfill would re-serve it forever, while
// lastSeq must stay put so the gap is detected on the next delivery.
func consumeSequencer(ctx context.Context, seq *events.Sequencer, drain bool, lastSeq *int64, out chan<- RecordBlock, onForward func(), faults *streamFaults) error {
	if drain {
		live, cancel := seq.Subscribe(1) // wake-up signal only
		defer cancel()
		cursor := *lastSeq
		for {
			frames, _ := seq.Backfill(cursor)
			if len(frames) == 0 {
				select {
				case <-ctx.Done():
					return nil
				case _, ok := <-live:
					if !ok {
						return nil
					}
					continue
				}
			}
			for _, f := range frames {
				s, done, err := forwardFrame(ctx, f, lastSeq, out, onForward, faults)
				if s > cursor {
					cursor = s
				}
				seq.TrimTo(cursor)
				if err != nil || done {
					return err
				}
			}
		}
	}
	live, cancel := seq.Subscribe(1024)
	defer cancel()
	frames, _ := seq.Backfill(0)
	for _, f := range frames {
		_, done, err := forwardFrame(ctx, f, lastSeq, out, onForward, faults)
		if err != nil || done {
			return err
		}
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case f, ok := <-live:
			if !ok {
				return nil
			}
			_, done, err := forwardFrame(ctx, f, lastSeq, out, onForward, faults)
			if err != nil || done {
				return err
			}
		}
	}
}

// forwardFrame decodes one frame and sends its block, skipping
// duplicates of the backfill; onForward fires after each delivered
// block. A sequence gap after the first frame means the sequencer
// dropped frames past this consumer — a typed *StreamGapError, since a
// measurement stream that silently thins its corpus corrupts every
// downstream statistic. seq is the frame's decoded sequence number (-1
// when unsequenced) even when the frame is skipped or faulted; done
// reports end-of-stream (marker seen or ctx canceled).
func forwardFrame(ctx context.Context, frame []byte, lastSeq *int64, out chan<- RecordBlock, onForward func(), faults *streamFaults) (seq int64, done bool, err error) {
	ev, err := events.Decode(frame)
	if err != nil {
		return -1, false, err
	}
	s := events.Seq(ev)
	fault, faulted := faults.lookup(s)
	if faulted {
		switch fault.Action {
		case FaultDrop:
			// Vanishes before the dedup/gap bookkeeping: lastSeq stays
			// put, so the next delivered frame trips the gap detector.
			return s, false, nil
		case FaultStall:
			time.Sleep(fault.Stall)
		}
	}
	if s >= 0 {
		if s <= *lastSeq {
			return s, false, nil
		}
		if *lastSeq > 0 && s > *lastSeq+1 {
			return s, false, &StreamGapError{Lost: s - *lastSeq - 1, From: *lastSeq, To: s}
		}
		*lastSeq = s
	}
	block, eof, err := DecodeStreamEvent(ev)
	if err != nil {
		return s, false, err
	}
	if eof {
		return s, true, nil
	}
	if block == nil {
		return s, false, nil
	}
	select {
	case out <- *block:
		onForward()
	case <-ctx.Done():
		return s, true, nil
	}
	if faulted && fault.Action == FaultDuplicate {
		// Replay the frame once, unfaulted: the re-decoded copy lands
		// in the s <= lastSeq dedup branch above, exercising the same
		// path a reconnecting relay's backfill overlap takes.
		return forwardFrame(ctx, frame, lastSeq, out, onForward, nil)
	}
	return s, false, nil
}
