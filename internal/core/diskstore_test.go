package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"blueskies/internal/events"
)

// diskTestDataset builds a small hand-rolled dataset covering every
// collection and every field class the wire codec carries (times, maps,
// negative-able ints, bools, label reaction-time joins).
func diskTestDataset() *Dataset {
	t0 := time.Date(2024, 3, 10, 12, 30, 0, 0, time.UTC)
	return &Dataset{
		Scale:         1000,
		WindowStart:   time.Date(2024, 3, 6, 0, 0, 0, 0, time.UTC),
		WindowEnd:     time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
		Firehose:      EventCounts{Commits: 100, Identity: 5, Handle: 2, Tombstone: 1},
		NonBskyEvents: 3,
		Labelers: []Labeler{
			{DID: "did:plc:official", Name: "bsky", Official: true, Values: []string{"spam", "porn"},
				Announced: t0, Functional: true, Active: true, Hosting: "cloud", Automated: true, Likes: 9},
			{DID: "did:plc:community", Name: "community", Announced: t0.Add(time.Hour), Active: true},
		},
		Users: []User{
			{DID: "did:plc:u0", Handle: "u0.bsky.social", DIDMethod: "plc", PDS: "pds0",
				Proof: ProofManaged, CreatedAt: t0, Lang: "en", Followers: 10, Following: 3, Posts: 2},
			{DID: "did:web:example.com", Handle: "example.com", DIDMethod: "web",
				Proof: ProofDNSTXT, CreatedAt: t0.Add(time.Minute), Deleted: true},
		},
		Posts: []Post{
			{URI: "at://did:plc:u0/app.bsky.feed.post/1", AuthorIdx: 0, Lang: "en",
				CreatedAt: t0, Likes: 4, HasMedia: true, AltText: true},
			{URI: "at://did:plc:u0/app.bsky.feed.post/2", AuthorIdx: 1, Lang: "pt", CreatedAt: t0.Add(time.Second)},
		},
		Daily: []DayActivity{
			{Date: t0.Truncate(24 * time.Hour), ActiveUsers: 2, Posts: 2, Likes: 4,
				ActiveByLang: map[string]int{"en": 1, "pt": 1}},
		},
		Labels: []Label{
			{Src: "did:plc:official", URI: "at://did:plc:u0/app.bsky.feed.post/1", Val: "spam",
				Kind: SubjectPost, Applied: t0.Add(90 * time.Millisecond), SubjectCreated: t0, FreshSubject: true},
			{Src: "did:plc:community", URI: "did:plc:u0", Val: "rude", Neg: true,
				Kind: SubjectAccount, Applied: t0.Add(time.Hour)},
		},
		FeedGens: []FeedGen{
			{URI: "at://did:plc:u0/app.bsky.feed.generator/f", CreatorIdx: 0, Platform: "self-hosted",
				DisplayName: "Feed", Description: "a feed", Lang: "en", CreatedAt: t0, Likes: 1,
				Posts: 7, LastPost: t0.Add(time.Minute), Reachable: true, LabeledShare: 0.25, TopLabel: "spam"},
		},
		Domains: []Domain{
			{Name: "example.com", IANAID: 42, RegistrarName: "Reg", TrancoRank: 1000, Subdomains: 2},
			{Name: "example.pt", CCTLD: true},
		},
		HandleUpdates: []HandleUpdate{
			{DID: "did:plc:u0", NewHandle: "new.bsky.social", Time: t0.Add(2 * time.Hour)},
		},
	}
}

// TestDiskPartitionRoundTrip pins the lossless codec contract: a
// dataset written block by block and read back materializes field for
// field, at several block sizes (including blocks smaller than a
// collection, which split it across frames).
func TestDiskPartitionRoundTrip(t *testing.T) {
	ds := diskTestDataset()
	for _, blockRecords := range []int{1, 3, 4096} {
		path := filepath.Join(t.TempDir(), "part.cbor")
		if err := WritePartition(path, ds, blockRecords); err != nil {
			t.Fatalf("blockRecords=%d: write: %v", blockRecords, err)
		}
		c := &Corpus{Dir: filepath.Dir(path), Manifest: BuildManifest([]*Dataset{ds}, ds.Scale, 0, true)}
		if err := os.Rename(path, filepath.Join(c.Dir, PartitionFileName(0))); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadPartition(0)
		if err != nil {
			t.Fatalf("blockRecords=%d: read: %v", blockRecords, err)
		}
		if !reflect.DeepEqual(got, ds) {
			t.Errorf("blockRecords=%d: round trip drifted:\n got %+v\nwant %+v", blockRecords, got, ds)
		}
	}
}

// TestDiskCorpusRoundTrip writes a multi-partition store and checks
// OpenCorpus + ReadPartition reproduce every split view and the
// manifest survives the JSON sidecar round trip.
func TestDiskCorpusRoundTrip(t *testing.T) {
	ds := diskTestDataset()
	parts, m := Split(ds, 2)
	dir := t.TempDir()
	if err := WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Manifest, m) {
		t.Errorf("manifest drifted through the sidecar:\n got %+v\nwant %+v", c.Manifest, m)
	}
	for k, want := range parts {
		got, err := c.ReadPartition(k)
		if err != nil {
			t.Fatalf("partition %d: %v", k, err)
		}
		// Split views alias the parent's slices; normalize nil vs empty
		// before comparing (the reader appends, so empties stay nil).
		if got.Counts() != want.Counts() {
			t.Fatalf("partition %d: counts %+v != %+v", k, got.Counts(), want.Counts())
		}
		if len(got.Users) > 0 && !reflect.DeepEqual(got.Users, want.Users) {
			t.Errorf("partition %d: users drifted", k)
		}
		if len(got.Labels) > 0 && !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Errorf("partition %d: labels drifted", k)
		}
	}
}

// corruptCase writes a 1-partition store and hands the partition file
// path to mutate before re-opening.
func corruptCase(t *testing.T, mutate func(t *testing.T, path string)) error {
	t.Helper()
	dir := t.TempDir()
	if err := WriteCorpus(dir, []*Dataset{diskTestDataset()}, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, PartitionFileName(0))
	mutate(t, path)
	c, err := OpenCorpus(dir)
	if err != nil {
		return err
	}
	ds, err := c.ReadPartition(0)
	if err == nil && ds == nil {
		t.Fatal("nil dataset without error")
	}
	return err
}

// TestDiskTruncation cuts the block file at every interesting byte
// length — inside the header, inside a frame header, inside a payload,
// and exactly at a frame boundary (no end marker) — and requires an
// error, never a panic and never a silent success.
func TestDiskTruncation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCorpus(dir, []*Dataset{diskTestDataset()}, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, PartitionFileName(0))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A few positions per regime plus a sweep over the first frames.
	cuts := []int{0, 4, len(partitionMagic), len(partitionMagic) + 2, len(partitionMagic) + 4,
		len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 8, len(full) - 1}
	for i := 12; i < 64 && i < len(full); i++ {
		cuts = append(cuts, i)
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(full) {
			continue
		}
		err := corruptCase(t, func(t *testing.T, p string) {
			if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if err == nil {
			t.Errorf("truncation at byte %d went unnoticed", cut)
		}
	}
}

// TestDiskCorruptBlock flips bytes in the stored frames: the checksum
// (or, for frames whose length field was hit, the length bound /
// resulting truncation) must surface an error.
func TestDiskCorruptBlock(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCorpus(dir, []*Dataset{diskTestDataset()}, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, PartitionFileName(0))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{13, 20, 40, len(full) / 2, len(full) - 10} {
		if pos >= len(full) {
			continue
		}
		err := corruptCase(t, func(t *testing.T, p string) {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 0x5A
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if err == nil {
			t.Errorf("flipped byte %d went unnoticed", pos)
		}
	}
	// Trailing garbage after the end marker is also corruption.
	err = corruptCase(t, func(t *testing.T, p string) {
		if err := os.WriteFile(p, append(append([]byte(nil), full...), 0xFF), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil {
		t.Error("trailing garbage after the end frame went unnoticed")
	}
}

// TestDiskManifestMismatch covers the store-level validation: missing
// partition files, stray extra ones, a foreign manifest format, an
// unsupported version, and a partition-count disagreement all fail at
// OpenCorpus.
func TestDiskManifestMismatch(t *testing.T) {
	write := func(t *testing.T) string {
		dir := t.TempDir()
		parts, m := Split(diskTestDataset(), 2)
		if err := WriteCorpus(dir, parts, m); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := write(t)
	if err := os.Remove(filepath.Join(dir, PartitionFileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("missing partition file went unnoticed")
	}

	dir = write(t)
	if err := os.WriteFile(filepath.Join(dir, PartitionFileName(7)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("stray extra partition file went unnoticed")
	}

	dir = write(t)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile),
		[]byte(`{"format":"something/else","version":1,"manifest":{"Partitions":[{}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("foreign manifest format went unnoticed")
	}

	dir = write(t)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile),
		[]byte(`{"format":"blueskies/partition-store","version":99,"manifest":{"Partitions":[{}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("future store version went unnoticed")
	}

	dir = write(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Partitions = m.Partitions[:1] // manifest says 1, disk has 2
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("manifest/partition count mismatch went unnoticed")
	}
}

// TestDiskRespillClearsStale pins the overwrite contract: writing a
// store into a directory that already holds one replaces it entirely —
// stale part files beyond the new partition count must not survive to
// fail (or worse, blend into) later opens.
func TestDiskRespillClearsStale(t *testing.T) {
	dir := t.TempDir()
	big, m4 := Split(diskTestDataset(), 4)
	if err := WriteCorpus(dir, big, m4); err != nil {
		t.Fatal(err)
	}
	small, m2 := Split(diskTestDataset(), 2)
	if err := WriteCorpus(dir, small, m2); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatalf("re-spilled store does not open: %v", err)
	}
	if len(c.Manifest.Partitions) != 2 {
		t.Fatalf("re-spilled store has %d partitions, want 2", len(c.Manifest.Partitions))
	}
	// Unrelated files survive a re-spill; only store artifacts clear.
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteCorpus(dir, small, m2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("re-spill removed an unrelated file: %v", err)
	}
}

// TestSimBlockRejectsInlineLabels pins the wire invariant from the
// receive side: inline labels are a disk-store affordance, and a
// #sim.block stream frame smuggling them in must be rejected by
// DecodeStreamEvent (not just unproducible via BlockEvent) — they
// would bypass the labeler gate and the per-partition label bases.
func TestSimBlockRejectsInlineLabels(t *testing.T) {
	ds := diskTestDataset()
	if _, err := BlockEvent(&RecordBlock{Labels: ds.Labels}); err == nil {
		t.Fatal("BlockEvent accepted labels")
	}
	body := MarshalBlock(&RecordBlock{Labels: ds.Labels})
	if _, _, err := DecodeStreamEvent(&events.Sim{Kind: simKindBlock, Body: body}); err == nil {
		t.Fatal("DecodeStreamEvent accepted a sim block carrying inline labels")
	}
}

// TestMixedVersionStoreRejected pins the store-level gates: a manifest
// envelope stamped v1 or v2, or a partition file of another format
// inside a v3 store (a blended re-spill), fails OpenCorpus with the
// re-spill instruction; a full re-spill replaces everything and opens
// clean.
func TestMixedVersionStoreRejected(t *testing.T) {
	dir := t.TempDir()
	parts, m := Split(diskTestDataset(), 2)
	if err := WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, ManifestFile)
	env, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	stamp := fmt.Sprintf(`"version": %d`, DiskFormatVersion)
	if !bytes.Contains(env, []byte(stamp)) {
		t.Fatalf("manifest envelope lacks %s:\n%s", stamp, env)
	}
	for _, v := range []int{1, 2} {
		old := bytes.Replace(env, []byte(stamp), []byte(fmt.Sprintf(`"version": %d`, v)), 1)
		if err := os.WriteFile(manifest, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCorpus(dir); err == nil || !strings.Contains(err.Error(), "re-spill") {
			t.Errorf("v%d manifest envelope: got %v, want a re-spill rejection", v, err)
		}
	}
	if err := os.WriteFile(manifest, env, 0o644); err != nil {
		t.Fatal(err)
	}

	// A stray v2 partition file inside the v3 store.
	part := filepath.Join(dir, PartitionFileName(0))
	data, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	stale := append(blockFileHeader(2), data[headerLen:]...)
	if err := os.WriteFile(part, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil || !strings.Contains(err.Error(), "re-spill") {
		t.Errorf("mixed-version store: got %v, want a re-spill rejection", err)
	}

	if err := WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err != nil {
		t.Fatalf("full re-spill does not open: %v", err)
	}
}

// blockFileHeader is a block-file header stamped with version.
func blockFileHeader(version uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte(partitionMagic), version)
}

// TestDiskVersionGate pins the block-file gates: wrong magic, a
// truncated header, and any format version but DiskFormatVersion — the
// retired v1 and v2 among them — are rejected with the re-spill
// instruction; a frame whose codec tag is a retired v2 codec (0x01
// tagged row CBOR, 0x02 v2 columnar) errors on read, never panics.
func TestDiskVersionGate(t *testing.T) {
	if _, err := NewPartitionReader(bytes.NewReader([]byte("NOTAPART\x00\x00\x00\x03"))); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := NewPartitionReader(bytes.NewReader([]byte(partitionMagic))); err == nil {
		t.Error("header-truncated file accepted")
	}
	for _, v := range []uint32{0, 1, 2, DiskFormatVersion + 1, 99} {
		_, err := NewPartitionReader(bytes.NewReader(blockFileHeader(v)))
		if err == nil || !strings.Contains(err.Error(), "re-spill") {
			t.Errorf("v%d block file: got %v, want a re-spill rejection", v, err)
		}
	}
	empty := append(blockFileHeader(DiskFormatVersion), make([]byte, 8)...) // header + end frame
	pr, err := NewPartitionReader(bytes.NewReader(empty))
	if err != nil {
		t.Fatalf("v%d header rejected: %v", DiskFormatVersion, err)
	}
	if err := drainPartition(pr); err != nil {
		t.Fatalf("empty v%d file: %v", DiskFormatVersion, err)
	}

	payload := MarshalBlock(columnarTestBlock())
	for _, tag := range []byte{0x01, 0x02} {
		retagged := append([]byte{tag}, payload[1:]...)
		file := blockFileHeader(DiskFormatVersion)
		file = binary.BigEndian.AppendUint32(file, uint32(len(retagged)))
		file = binary.BigEndian.AppendUint32(file, frameChecksum(retagged))
		file = append(append(file, retagged...), make([]byte, 8)...)
		pr, err := NewPartitionReader(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if err := drainPartition(pr); err == nil {
			t.Errorf("frame with retired codec tag %#x decoded", tag)
		}
	}
}

// drainPartition reads blocks until EOF or error.
func drainPartition(pr *PartitionReader) error {
	for {
		if _, err := pr.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// TestPartitionReaderHostileBytes is the always-on randomized half of
// the fuzz coverage (the repo's CI runs `go test`, not `go test
// -fuzz`): thousands of random mutations, truncations, and splices of
// a valid partition file, plus pure noise, must all produce errors or
// clean EOFs — never a panic and never a runaway allocation.
func TestPartitionReaderHostileBytes(t *testing.T) {
	plain := shipTestFile(t)
	// Mutate the compressed form too: corrupt LZ frames must fail as
	// cleanly as corrupt plain frames.
	comp, err := CompressPartitionBlocks(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, valid := range [][]byte{plain, comp} {
		rng := rand.New(rand.NewSource(20240501))
		for i := 0; i < 4000; i++ {
			var mut []byte
			switch i % 4 {
			case 0: // byte flips
				mut = append([]byte(nil), valid...)
				for j := 0; j < 1+rng.Intn(8); j++ {
					mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
				}
			case 1: // truncation
				mut = valid[:rng.Intn(len(valid))]
			case 2: // splice two random windows
				a, b := rng.Intn(len(valid)), rng.Intn(len(valid))
				mut = append(append([]byte(nil), valid[:a]...), valid[b:]...)
			case 3: // noise with a valid header
				mut = make([]byte, rng.Intn(512))
				rng.Read(mut)
				if i%8 == 3 {
					mut = append(blockFileHeader(DiskFormatVersion), mut...)
				}
			}
			pr, err := NewPartitionReader(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			_ = drainPartition(pr) // errors are expected; panics fail the test
		}
	}
}

// FuzzPartitionReader throws arbitrary bytes at the block reader: it
// must always return (blocks, error) — never panic, never spin — for
// any input, seeded with a valid partition file and its mutations.
func FuzzPartitionReader(f *testing.F) {
	for _, blockRecords := range []int{1, 2, DiskBlockRecords} {
		path := filepath.Join(f.TempDir(), "part.cbor")
		if err := WritePartition(path, diskTestDataset(), blockRecords); err != nil {
			f.Fatal(err)
		}
		valid, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		comp, err := CompressPartitionBlocks(valid)
		if err != nil {
			f.Fatal(err)
		}
		for _, seed := range [][]byte{valid, comp} {
			f.Add(seed)
			f.Add(seed[:len(seed)/2])
		}
	}
	f.Add(blockFileHeader(DiskFormatVersion))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := NewPartitionReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = drainPartition(pr) // any error is fine; panics are not
	})
}
