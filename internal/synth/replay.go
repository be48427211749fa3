package synth

import (
	"fmt"

	"blueskies/internal/core"
	"blueskies/internal/events"
)

// ReplayBlockSize is the default number of records per replayed frame.
const ReplayBlockSize = 2048

// Stream indices of the two replay destinations, as seen by consumers
// that address streams positionally (core.DrainSequencersFaulted,
// ReplayHooks.OnEmit). When labeler == fire everything multiplexes
// onto StreamFirehose.
const (
	StreamFirehose = 0
	StreamLabeler  = 1
)

// ReplayHooks instruments a replay without changing what it emits.
type ReplayHooks struct {
	// BlockSize overrides the records-per-frame chunking
	// (<= 0 means ReplayBlockSize).
	BlockSize int
	// OnEmit, when non-nil, fires after every emitted frame with the
	// destination stream (StreamFirehose/StreamLabeler) and the
	// sequence number the sequencer assigned. It runs on the replay
	// goroutine — scenario harnesses use it to sample sequencer
	// backlogs and pace storms; keep it cheap.
	OnEmit func(stream int, seq int64)
}

// Replay plays a generated dataset through event sequencers the way
// the live network delivers it: the corpus header, the labeler
// population, and the non-label record collections go to the firehose
// sequencer as #sim.block frames of kind "block"; labels go to the
// labeler sequencer as frames of kind "labels". Both carry v3 column
// blocks, so the round trip is lossless. Both streams end with an
// end-of-stream marker. labeler may equal fire to multiplex everything
// onto one stream.
//
// Each collection is emitted in dataset order, so a streaming consumer
// reconstructs exactly the state of a one-worker batch traversal —
// the deterministic-replay contract the stream/batch parity tests pin.
func Replay(ds *core.Dataset, fire, labeler *events.Sequencer, blockSize int) error {
	return ReplayWithHooks(ds, fire, labeler, ReplayHooks{BlockSize: blockSize})
}

// ReplayFrames reports how many frames a Replay of ds emits on each
// stream (header + per-collection record blocks + end-of-stream
// marker), so fault schedules can target meaningful sequence numbers
// without replaying first. With labeler == fire the streams multiplex
// and the firehose carries fire+labeler frames minus one marker.
func ReplayFrames(ds *core.Dataset, blockSize int) (fire, labeler int64) {
	if blockSize <= 0 {
		blockSize = ReplayBlockSize
	}
	nb := func(n int) int64 {
		return int64((n + blockSize - 1) / blockSize)
	}
	fire = 1 + // header + labeler announcements
		nb(len(ds.Users)) + nb(len(ds.Posts)) + nb(len(ds.Daily)) +
		nb(len(ds.FeedGens)) + nb(len(ds.Domains)) + nb(len(ds.HandleUpdates)) +
		1 // end-of-stream marker
	labeler = nb(len(ds.Labels)) + 1
	return fire, labeler
}

// ReplayWithHooks is Replay with scenario instrumentation attached.
func ReplayWithHooks(ds *core.Dataset, fire, labeler *events.Sequencer, h ReplayHooks) error {
	blockSize := h.BlockSize
	if blockSize <= 0 {
		blockSize = ReplayBlockSize
	}
	emitTo := func(seq *events.Sequencer, stream int, ev *events.Sim) error {
		s, err := seq.Emit(func(s int64) any {
			ev.Seq = s
			return ev
		})
		if err == nil && h.OnEmit != nil {
			h.OnEmit(stream, s)
		}
		return err
	}
	emit := func(seq *events.Sequencer, ev *events.Sim) error {
		stream := StreamFirehose
		if seq == labeler && labeler != fire {
			stream = StreamLabeler
		}
		return emitTo(seq, stream, ev)
	}
	emitBlock := func(b *core.RecordBlock) error {
		ev, err := core.BlockEvent(b)
		if err != nil {
			return err
		}
		return emit(fire, ev)
	}

	// Header and labeler announcements first: stream consumers need
	// the labeler DID index before the first label arrives.
	if err := emitBlock(&core.RecordBlock{
		Header: &core.StreamHeader{
			Scale:         ds.Scale,
			WindowStart:   ds.WindowStart,
			WindowEnd:     ds.WindowEnd,
			Firehose:      ds.Firehose,
			NonBskyEvents: ds.NonBskyEvents,
		},
		Labelers: ds.Labelers,
	}); err != nil {
		return fmt.Errorf("synth: replay header: %w", err)
	}

	for lo := 0; lo < len(ds.Users); lo += blockSize {
		hi := min(lo+blockSize, len(ds.Users))
		if err := emitBlock(&core.RecordBlock{Users: ds.Users[lo:hi]}); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(ds.Posts); lo += blockSize {
		hi := min(lo+blockSize, len(ds.Posts))
		if err := emitBlock(&core.RecordBlock{Posts: ds.Posts[lo:hi]}); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(ds.Daily); lo += blockSize {
		hi := min(lo+blockSize, len(ds.Daily))
		if err := emitBlock(&core.RecordBlock{Days: ds.Daily[lo:hi]}); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(ds.FeedGens); lo += blockSize {
		hi := min(lo+blockSize, len(ds.FeedGens))
		if err := emitBlock(&core.RecordBlock{FeedGens: ds.FeedGens[lo:hi]}); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(ds.Domains); lo += blockSize {
		hi := min(lo+blockSize, len(ds.Domains))
		if err := emitBlock(&core.RecordBlock{Domains: ds.Domains[lo:hi]}); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(ds.HandleUpdates); lo += blockSize {
		hi := min(lo+blockSize, len(ds.HandleUpdates))
		if err := emitBlock(&core.RecordBlock{HandleUpdates: ds.HandleUpdates[lo:hi]}); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(ds.Labels); lo += blockSize {
		hi := min(lo+blockSize, len(ds.Labels))
		if err := emit(labeler, core.LabelBlockEvent(ds.Labels[lo:hi])); err != nil {
			return err
		}
	}
	if err := emit(fire, core.EOFEvent()); err != nil {
		return err
	}
	if labeler != fire {
		if err := emit(labeler, core.EOFEvent()); err != nil {
			return err
		}
	}
	return nil
}
