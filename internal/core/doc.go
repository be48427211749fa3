// Package core implements the paper's primary contribution: the
// measurement pipeline. It owns the data model every other layer
// speaks — from one materialized dataset up to a partitioned,
// disk-backed corpus — and the collectors that populate it from a live
// network.
//
// # Architecture: Dataset → Partition/Manifest → blocks → disk
//
// The corpus model is layered; each layer is the previous one made
// shippable at a larger scale:
//
//	Dataset        one materialized corpus: the five datasets of §3
//	               (User Identifiers, DID Documents, Repositories,
//	               Firehose, Feed Generators, plus Labeling Services)
//	               as plain record slices (dataset.go)
//	Partition set  a corpus as n Datasets plus a Manifest describing
//	               them: per-partition record counts, base offsets in
//	               concatenation order, seeds, windows, and whether
//	               index-bearing fields are corpus-global or
//	               partition-local (partition.go)
//	RecordBlock    the streaming unit: a bounded batch of records from
//	               any subset of the collections, with one columnar
//	               codec (columnar.go) carried in sequencer frames
//	               (stream.go) and disk frames alike
//	Disk store     a partition set persisted as one block file per
//	               partition plus a manifest.json sidecar, streamed
//	               back without ever materializing a partition
//	               (diskstore.go, format spec in DESIGN.md §8, §11)
//
// Two producers fill the model: internal/crawl's Collector crawls a
// running deployment exactly the way the paper's crawler did
// (listRepos → DID docs → getRepo CARs → firehose → labeler streams →
// feed crawls → DNS/WHOIS actives), and internal/synth emits the model directly at
// scale with distributions calibrated to the paper. Two consumers
// drain it: internal/analysis evaluates any mix of materialized,
// streamed, and disk-backed partitions through one engine, and the
// stream codec replays a corpus over in-process sequencers as if the
// network had produced it.
//
// Partitioning invariants (enforced by Split/BuildManifest/Concat and
// relied on by every consumer): every partition carries the full
// labeler enumeration, because labels attribute by labeler index,
// which must agree across partitions (MergeLabelers fails loudly when
// it does not); corpus-level facts — firehose counters and, for
// independently generated partitions, the daily activity series — ride
// on partition 0 only, so summing partitions never double-counts; and
// each collection's records keep their canonical dataset order within
// a partition, which is all the analysis accumulators depend on.
//
// The disk store (WriteCorpus/OpenCorpus, WritePartition/
// OpenPartition) adds the persistence rules: framed blocks with
// per-frame checksums and an explicit end marker, so truncation and
// bit rot surface as errors rather than silently thinned statistics,
// and a versioned manifest sidecar that makes a spilled corpus a
// reproducible, shareable artifact — the placement unit a remote
// partition scheduler would ship.
package core
