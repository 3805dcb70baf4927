// Package tracefile persists L2 reference streams in a compact, versioned
// binary format, turning the generator-only simulator into a trace-driven
// one: reference streams can be captured once (from the statistical
// generators or any other trace.RefSource), stored as deterministic
// regression corpora, and replayed under any design without paying the
// generation cost again. Version 2 adds a chunk index and footer, so a
// trace is also seekable (IndexedReader.Seek), windowable (Window),
// shardable across workers (Shard, Parallel), and safe for any number of
// concurrent readers over one file descriptor. cmd/rnuca-trace is the
// command-line front end; in the library, rnuca's Job.Record writes a
// trace and a Job over FromTrace or FromCorpus replays one.
//
// # On-disk format
//
// A trace file is a fixed preamble, a varint-encoded metadata block, a
// sequence of gzip-framed chunks and — in version 2 — an index section,
// then a terminator frame and (version 2) a fixed footer:
//
//	offset  size  field
//	0       4     magic "RNTR"
//	4       2     format version, uint16 little-endian (currently 2)
//	6       8     total ref count, uint64 little-endian (0 = unknown;
//	              patched on Close when the underlying writer can seek)
//	14      var   uvarint metadata length, then the metadata block
//
// The metadata block is a forward-compatible field sequence — readers
// decode the fields they know and ignore trailing bytes:
//
//	uvarint len + bytes   workload name
//	uvarint len + bytes   design that recorded the trace ("" if none)
//	uvarint               cores
//	uvarint               workload seed
//	uvarint               warmup refs the recording run used
//	uvarint               measured refs the recording run used
//	8 bytes               IEEE-754 bits of OffChipMLP, little-endian
//
// Each chunk holds up to ChunkRefs records, framed so a reader can
// stream without decoding ahead and can size its buffers exactly:
//
//	uint32 LE  compressed payload length C
//	uint32 LE  uncompressed payload length
//	uint32 LE  record count in this chunk
//	C bytes    gzip-compressed record payload
//
// The terminator is a frame with both lengths zero whose record-count
// field carries the low 32 bits of the file's total ref count, letting
// readers distinguish clean ends from truncation.
//
// # Chunk index and footer (version 2)
//
// A v2 writer appends exactly one index section between the last data
// chunk and the terminator. It is framed like a chunk — compressed
// length, uncompressed length, then the gzip payload — except that its
// count field holds the sentinel 0xFFFFFFFF (unreachable as a real
// record count, since chunk payloads are byte-capped). The payload is a
// varint sequence:
//
//	uvarint        entry count (== number of data chunks)
//	uvarint        cores (width of the per-entry snapshots)
//	per entry:
//	  uvarint      chunk frame byte offset, delta vs the previous entry
//	  uvarint      record count in the chunk (the entry's first-record
//	               total is the running sum of preceding counts)
//	  cores x varint  per-core last address at the chunk's end, delta
//	               vs the previous entry's snapshot (two's-complement
//	               wrap-around, like record address deltas)
//
// Because record delta state resets at every chunk boundary, any chunk
// decodes independently given only its frame; the snapshots let a
// random-access reader verify a fully-decoded chunk end-to-end (the
// terminator's running total is out of reach mid-file).
//
// After the terminator, a fixed 24-byte footer makes the index
// discoverable without scanning: the index frame's byte offset (uint64
// LE), the total record count (uint64 LE — authoritative even when the
// preamble count was never patched), the chunk count (uint32 LE), and
// the footer magic "RNIX". Sequential readers validate the footer at
// the terminator, so truncation anywhere in a v2 file is detected.
//
// # Versioning rules
//
// Readers accept versions 1 and 2: a v1 file is simply a v2 file with
// no index section and no footer, and every v1 trace remains readable
// (rnuca-trace index -upgrade rewrites one as indexed v2). Writers only
// produce the current version. Random access requires v2 — opening a
// v1 file through IndexedReader fails with ErrNoIndex, never silently
// degrades. Unknown future versions are rejected up front; unknown
// trailing metadata fields are ignored, so v2.x extensions can add
// header fields without a version bump.
//
// # Record encoding
//
// Records are delta-encoded against per-core state that resets at every
// chunk boundary, so chunks are independently decodable:
//
//	byte     Kind (low nibble) | Class (high nibble)
//	uvarint  core
//	varint   thread - core (0 while no migration is in effect)
//	varint   addr - previous addr of the same core (two's-complement
//	         wrap-around arithmetic, so the full uint64 space round-trips)
//	uvarint  busy cycles
//
// Consecutive refs of one core tend to land near each other (Zipf hot
// sets, sequential scans), so the address deltas are short and the gzip
// layer squeezes the remaining redundancy; OLTP traces compress to a few
// bytes per reference.
package tracefile
