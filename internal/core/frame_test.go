package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blueskies/internal/events"
)

// seededPosts returns n posts drawn from rng: unique URIs, languages
// from a small vocabulary, and ascending creation times.
func seededPosts(rng *rand.Rand, n int) []Post {
	langs := []string{"en", "ja", "pt", "de", "ko", ""}
	t := time.Date(2024, 3, 6, 0, 0, 0, 0, time.UTC)
	ps := make([]Post, n)
	for i := range ps {
		t = t.Add(time.Duration(rng.Int63n(int64(time.Second))))
		ps[i] = Post{
			URI:       fmt.Sprintf("at://did:plc:%024x/app.bsky.feed.post/3k%08x", rng.Int63(), rng.Int31()),
			AuthorIdx: rng.Intn(50_000),
			Lang:      langs[rng.Intn(len(langs))],
			CreatedAt: t,
			Likes:     rng.Intn(100),
			Reposts:   rng.Intn(10),
			HasMedia:  rng.Intn(3) == 0,
			AltText:   rng.Intn(5) == 0,
		}
	}
	return ps
}

// seededLabels returns n labels drawn from rng over a few labelers,
// values and every subject kind, with nanosecond reaction-time joins.
func seededLabels(rng *rand.Rand, n int) []Label {
	vals := []string{"spam", "porn", "nudity", "rude", "!hide", "no-alt-text"}
	kinds := []SubjectKind{SubjectPost, SubjectAccount, SubjectMedia, SubjectOther}
	t := time.Date(2024, 3, 6, 0, 0, 0, 0, time.UTC)
	ls := make([]Label, n)
	for i := range ls {
		t = t.Add(time.Duration(rng.Int63n(int64(time.Second))))
		l := Label{
			Src:     fmt.Sprintf("did:plc:labeler%d", rng.Intn(8)),
			URI:     fmt.Sprintf("at://did:plc:%024x/app.bsky.feed.post/3k%08x", rng.Int63(), rng.Int31()),
			Val:     vals[rng.Intn(len(vals))],
			Neg:     rng.Intn(20) == 0,
			Kind:    kinds[rng.Intn(len(kinds))],
			Applied: t,
		}
		if l.Kind == SubjectPost {
			l.SubjectCreated = t.Add(-time.Duration(rng.Int63n(int64(time.Hour))))
			l.FreshSubject = rng.Intn(2) == 0
		}
		ls[i] = l
	}
	return ls
}

// seededBlocks chunks a small seeded corpus the way replays and
// spills do: one block of every collection, then posts and labels in
// blocks of varying size.
func seededBlocks(seed int64) []*RecordBlock {
	rng := rand.New(rand.NewSource(seed))
	full := columnarTestBlock()
	blocks := []*RecordBlock{full, {Header: full.Header, Labelers: full.Labelers}, {}}
	posts, labels := seededPosts(rng, 3000), seededLabels(rng, 3000)
	for lo := 0; lo < len(posts); {
		hi := min(lo+1+rng.Intn(400), len(posts))
		blocks = append(blocks, &RecordBlock{Posts: posts[lo:hi]})
		lo = hi
	}
	for lo := 0; lo < len(labels); {
		hi := min(lo+1+rng.Intn(400), len(labels))
		blocks = append(blocks, &RecordBlock{Labels: labels[lo:hi]})
		lo = hi
	}
	return blocks
}

// TestPooledEncoderConcurrentDeterminism pins the pooled column
// encoder: blocks encoded from four goroutines at once are
// byte-identical to a sequential encode, and no payload aliases the
// pooled scratch — each stays intact while later blocks are encoded,
// and scribbling over one changes no later encoding.
func TestPooledEncoderConcurrentDeterminism(t *testing.T) {
	blocks := seededBlocks(42)
	want := make([][]byte, len(blocks))
	for i, b := range blocks {
		want[i] = bytes.Clone(encodeColumnar(b))
	}
	const workers = 4
	got := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([][]byte, len(blocks))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range blocks {
				i := (k + w*len(blocks)/workers) % len(blocks) // stagger the workers
				got[w][i] = encodeColumnar(blocks[i])
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range blocks {
			if !bytes.Equal(got[w][i], want[i]) {
				t.Fatalf("worker %d block %d: concurrent encoding differs from the sequential one", w, i)
			}
		}
	}
	for i := range got[0][0] {
		got[0][0][i] ^= 0xff
	}
	for i, b := range blocks {
		if !bytes.Equal(encodeColumnar(b), want[i]) {
			t.Fatalf("block %d: re-encoding after a payload was mutated differs", i)
		}
	}
	for w := range got {
		for i := range blocks {
			if (w != 0 || i != 0) && !bytes.Equal(got[w][i], want[i]) {
				t.Fatalf("worker %d block %d: payload changed under later encodes", w, i)
			}
		}
	}
}

// FuzzStreamFrame throws arbitrary bytes at the stream receive path,
// events.Decode then DecodeStreamEvent: each input must decode or
// error, never panic. The seeds are one real frame of every shape a
// stream carries: a corpus header, a posts block, a labels frame, an
// end-of-stream marker and a live labeler's #labels frame.
func FuzzStreamFrame(f *testing.F) {
	full := columnarTestBlock()
	hdr, err := BlockEvent(&RecordBlock{Header: full.Header, Labelers: full.Labelers})
	if err != nil {
		f.Fatal(err)
	}
	posts, err := BlockEvent(&RecordBlock{Posts: full.Posts})
	if err != nil {
		f.Fatal(err)
	}
	live := &events.Labels{Seq: 9, Labels: []events.Label{{
		Src: "did:plc:l", URI: "at://did:plc:u0/app.bsky.feed.post/1", Val: "spam", CTS: "2024-04-01T00:00:00.123Z",
	}}}
	for i, ev := range []any{hdr, posts, LabelBlockEvent(full.Labels), EOFEvent(), live} {
		if s, ok := ev.(*events.Sim); ok {
			s.Seq = int64(i + 1)
		}
		frame, err := events.Encode(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		ev, err := events.Decode(frame)
		if err != nil {
			return
		}
		_, _, _ = DecodeStreamEvent(ev) // any error is fine; panics are not
	})
}

// BenchmarkStreamFrame times one stream frame's full trip, encode
// (block build, column encode, frame encode) and decode (frame decode,
// column decode), for a 2,048-row posts block and a 2,048-label labels
// frame — the two frame shapes a replay mostly emits.
func BenchmarkStreamFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	posts, labels := seededPosts(rng, 2048), seededLabels(rng, 2048)
	trip := func(b *testing.B, build func() (*events.Sim, error)) {
		b.ReportAllocs()
		for b.Loop() {
			ev, err := build()
			if err != nil {
				b.Fatal(err)
			}
			frame, err := events.Encode(ev)
			if err != nil {
				b.Fatal(err)
			}
			dec, err := events.Decode(frame)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := DecodeStreamEvent(dec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("posts", func(b *testing.B) {
		trip(b, func() (*events.Sim, error) { return BlockEvent(&RecordBlock{Posts: posts}) })
	})
	b.Run("labels", func(b *testing.B) {
		trip(b, func() (*events.Sim, error) { return LabelBlockEvent(labels), nil })
	})
}
