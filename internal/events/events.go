// Package events defines the event-stream wire format shared by the
// Relay Firehose (com.atproto.sync.subscribeRepos) and Labeler streams
// (com.atproto.label.subscribeLabels): each WebSocket binary message
// carries two concatenated DAG-CBOR documents — a header {op, t}
// followed by the typed body.
//
// The event types mirror Table 1 of the paper: repo commits (99.78 %
// of traffic), identity updates, handle updates, and tombstones.
package events

import (
	"fmt"
	"time"

	"blueskies/internal/cbor"
	"blueskies/internal/cid"
)

// Event type discriminators carried in the frame header.
const (
	TypeCommit    = "#commit"
	TypeIdentity  = "#identity"
	TypeHandle    = "#handle"
	TypeTombstone = "#tombstone"
	TypeLabels    = "#labels"
	TypeInfo      = "#info"
	TypeSim       = "#sim.block"
)

// header is the first CBOR document of each frame.
type header struct {
	Op int    `cbor:"op"`
	T  string `cbor:"t,omitempty"`
}

// RepoOp is one record operation inside a commit event.
type RepoOp struct {
	Action string   `cbor:"action"` // create | update | delete
	Path   string   `cbor:"path"`   // collection/rkey
	CID    *cid.CID `cbor:"cid"`    // nil for deletes
}

// Commit is a repository-commit event: an update to the content of a
// user's repository.
type Commit struct {
	Seq    int64    `cbor:"seq"`
	Repo   string   `cbor:"repo"` // the DID
	Rev    string   `cbor:"rev"`
	Commit cid.CID  `cbor:"commit"`
	Ops    []RepoOp `cbor:"ops"`
	Blocks []byte   `cbor:"blocks"` // CAR slice with the new blocks
	Time   string   `cbor:"time"`
}

// Identity is a DID-document cache-invalidation event.
type Identity struct {
	Seq  int64  `cbor:"seq"`
	DID  string `cbor:"did"`
	Time string `cbor:"time"`
}

// Handle is a user handle-change event.
type Handle struct {
	Seq    int64  `cbor:"seq"`
	DID    string `cbor:"did"`
	Handle string `cbor:"handle"` // the new handle
	Time   string `cbor:"time"`
}

// Tombstone marks an account deletion.
type Tombstone struct {
	Seq  int64  `cbor:"seq"`
	DID  string `cbor:"did"`
	Time string `cbor:"time"`
}

// Label is one moderation label as emitted on a labeler stream:
// src applies val to uri; neg rescinds a previous application. A
// replay ships its labels losslessly in Sim frames of kind "labels".
type Label struct {
	Src string `cbor:"src"` // labeler DID
	URI string `cbor:"uri"` // subject: at:// URI or a bare DID
	Val string `cbor:"val"`
	Neg bool   `cbor:"neg,omitempty"`
	CTS string `cbor:"cts"` // creation timestamp
}

// Labels is a labeler stream frame carrying one or more labels.
type Labels struct {
	Seq    int64   `cbor:"seq"`
	Labels []Label `cbor:"labels"`
}

// Info is an informational/service frame.
type Info struct {
	Name    string `cbor:"name"`
	Message string `cbor:"message,omitempty"`
}

// Sim is a simulator extension frame: an opaque body under a kind
// discriminator. The dataset replay streams the records the live
// protocol delivers out of band as column blocks — kind "block" on the
// firehose, kind "labels" on labeler streams — and ends each stream
// with kind "eof"; see core.DecodeStreamEvent for the body codec.
type Sim struct {
	Seq  int64  `cbor:"seq"`
	Kind string `cbor:"kind"`
	Body []byte `cbor:"body,omitempty"`
}

// Seq returns the sequence number of any sequenced event, or -1.
func Seq(ev any) int64 {
	switch e := ev.(type) {
	case *Commit:
		return e.Seq
	case *Identity:
		return e.Seq
	case *Handle:
		return e.Seq
	case *Tombstone:
		return e.Seq
	case *Labels:
		return e.Seq
	case *Sim:
		return e.Seq
	}
	return -1
}

// TypeOf returns the frame discriminator for an event value.
func TypeOf(ev any) (string, error) {
	switch ev.(type) {
	case *Commit:
		return TypeCommit, nil
	case *Identity:
		return TypeIdentity, nil
	case *Handle:
		return TypeHandle, nil
	case *Tombstone:
		return TypeTombstone, nil
	case *Labels:
		return TypeLabels, nil
	case *Info:
		return TypeInfo, nil
	case *Sim:
		return TypeSim, nil
	}
	return "", fmt.Errorf("events: unknown event type %T", ev)
}

// Encode renders an event as a binary frame (header ‖ body), written
// into one buffer sized up front for a Sim frame's body.
func Encode(ev any) ([]byte, error) {
	t, err := TypeOf(ev)
	if err != nil {
		return nil, err
	}
	size := 64 // header and every field but a Sim body
	if s, ok := ev.(*Sim); ok {
		size += len(s.Body)
	}
	frame, err := cbor.AppendMarshal(make([]byte, 0, size), header{Op: 1, T: t})
	if err != nil {
		return nil, err
	}
	return cbor.AppendMarshal(frame, ev)
}

// Decode parses a binary frame into its typed event.
func Decode(frame []byte) (any, error) {
	rawHdr, n, err := cbor.DecodePrefix(frame)
	if err != nil {
		return nil, fmt.Errorf("events: frame header: %w", err)
	}
	hm, ok := rawHdr.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("events: header is %T, want map", rawHdr)
	}
	op, _ := hm["op"].(int64)
	if op != 1 {
		return nil, fmt.Errorf("events: error frame (op=%d)", op)
	}
	t, _ := hm["t"].(string)
	body := frame[n:]
	var ev any
	switch t {
	case TypeCommit:
		ev = new(Commit)
	case TypeIdentity:
		ev = new(Identity)
	case TypeHandle:
		ev = new(Handle)
	case TypeTombstone:
		ev = new(Tombstone)
	case TypeLabels:
		ev = new(Labels)
	case TypeInfo:
		ev = new(Info)
	case TypeSim:
		ev = new(Sim)
	default:
		return nil, fmt.Errorf("events: unknown frame type %q", t)
	}
	if err := cbor.Unmarshal(body, ev); err != nil {
		return nil, fmt.Errorf("events: decode %s body: %w", t, err)
	}
	return ev, nil
}

// FormatTime renders event timestamps (RFC 3339 with milliseconds).
func FormatTime(t time.Time) string {
	return t.UTC().Format("2006-01-02T15:04:05.000Z")
}

// ParseTime parses an event timestamp.
func ParseTime(s string) (time.Time, error) {
	for _, layout := range []string{"2006-01-02T15:04:05.000Z", time.RFC3339, time.RFC3339Nano} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("events: bad timestamp %q", s)
}
