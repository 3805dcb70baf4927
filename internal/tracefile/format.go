package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Format constants. See doc.go for the full layout.
const (
	// Version is the current on-disk format version: v2 adds a chunk
	// index before the terminator and a fixed footer after it, making
	// traces seekable and shardable. Readers accept v1 and v2.
	Version = 2
	// versionV1 is the index-less original format, still readable (and
	// still writable through the unexported newWriterVersion, which the
	// compatibility tests use).
	versionV1 = 1

	magic = "RNTR"
	// countOffset is the byte offset of the patchable total-ref count.
	countOffset = 6

	// frameSize is the chunk frame header: compressed length,
	// uncompressed length, record count (all uint32 little-endian).
	frameSize = 12

	// indexMarker in a frame's record-count field tags the frame as the
	// v2 chunk index rather than a data chunk. Real counts cannot reach
	// it: a chunk's payload is capped at maxChunkBytes and every record
	// costs at least one payload byte.
	indexMarker = 0xFFFFFFFF

	// footerSize is the fixed v2 footer: index frame byte offset
	// (uint64), total record count (uint64), chunk count (uint32), and
	// the footer magic, all little-endian.
	footerSize  = 24
	footerMagic = "RNIX"

	// maxChunkBytes bounds both chunk payload lengths a reader will
	// accept, so corrupt or adversarial frames cannot force huge
	// allocations.
	maxChunkBytes = 1 << 26
	// maxMetaBytes bounds the header metadata block.
	maxMetaBytes = 1 << 20
	// maxCores bounds the per-core delta state a reader will allocate.
	maxCores = 1 << 12

	// DefaultChunkRefs is the Writer's default records-per-chunk.
	DefaultChunkRefs = 1 << 15
)

// checkChunkFrame bounds a data chunk's frame, for the streaming and
// the indexed reader alike: both lengths within 1..maxChunkBytes and
// at least one record.
func checkChunkFrame(compLen, rawLen, count uint32) error {
	if compLen == 0 || compLen > maxChunkBytes || rawLen == 0 || rawLen > maxChunkBytes || count == 0 {
		return corruptf("chunk frame lengths %d/%d/%d", compLen, rawLen, count)
	}
	return nil
}

// maxChunkRaw bounds the uncompressed payload the Writer packs into one
// chunk regardless of ChunkRefs, so incompressible refs can never emit a
// chunk the package's own Reader would reject: gzip expands worst-case
// input by well under 2x, keeping the compressed frame inside
// maxChunkBytes. A variable so the writer-splitting tests can lower it.
var maxChunkRaw = maxChunkBytes / 2

// ErrCorrupt reports a structurally invalid trace file; errors returned
// by readers wrap it.
var ErrCorrupt = errors.New("tracefile: corrupt trace")

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Header is the trace metadata carried by the file preamble. It records
// enough about the originating run for a replay to reconstruct the
// simulation configuration without consulting the workload catalog.
type Header struct {
	// Workload is the workload name ("OLTP-DB2", ...).
	Workload string
	// Design is the design that recorded the trace ("R", ...), or ""
	// when the trace was captured outside a timing run.
	Design string
	// Cores is the core count of the recorded reference stream.
	Cores int
	// Seed is the workload seed the stream was generated with.
	Seed uint64
	// Warm and Measure are the recording run's chip-wide reference
	// counts; replays default to the same split.
	Warm, Measure int
	// OffChipMLP is the workload's memory-level parallelism divisor.
	OffChipMLP float64
	// Refs is the total record count, or 0 when the writer could not
	// seek back to patch it.
	Refs uint64
}

// appendUvarint/appendVarint are binary.AppendUvarint/AppendVarint,
// named locally to keep call sites compact.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeHeader renders the full preamble (magic through metadata block)
// for the given format version.
func encodeHeader(h Header, version int) []byte {
	meta := make([]byte, 0, 64)
	meta = appendString(meta, h.Workload)
	meta = appendString(meta, h.Design)
	meta = appendUvarint(meta, uint64(h.Cores))
	meta = appendUvarint(meta, h.Seed)
	meta = appendUvarint(meta, uint64(h.Warm))
	meta = appendUvarint(meta, uint64(h.Measure))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(h.OffChipMLP))

	out := make([]byte, 0, countOffset+8+binary.MaxVarintLen64+len(meta))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, uint16(version))
	out = binary.LittleEndian.AppendUint64(out, h.Refs)
	out = appendUvarint(out, uint64(len(meta)))
	return append(out, meta...)
}

// IndexEntry describes one chunk of a v2 trace: where its frame starts,
// which records it holds, and the per-core delta state at its end (the
// writer's lastAddr just before the chunk-boundary reset). Because delta
// state resets at every boundary, any chunk decodes independently; the
// snapshot lets readers verify a fully-decoded chunk against the index.
type IndexEntry struct {
	// Offset is the byte offset of the chunk's frame from file start.
	Offset uint64
	// FirstRecord is the number of records preceding this chunk.
	FirstRecord uint64
	// Count is the number of records in this chunk.
	Count uint32
	// LastAddr is each core's last address at the chunk's end.
	LastAddr []uint64
}

// encodeIndex renders the (uncompressed) index block payload: entry and
// core counts, then per entry the chunk offset delta, record count, and
// per-core lastAddr deltas against the previous entry's snapshot.
func encodeIndex(entries []IndexEntry, cores int) []byte {
	b := appendUvarint(nil, uint64(len(entries)))
	b = appendUvarint(b, uint64(cores))
	var prevOff uint64
	prevLast := make([]uint64, cores)
	for _, e := range entries {
		b = appendUvarint(b, e.Offset-prevOff)
		b = appendUvarint(b, uint64(e.Count))
		for c := 0; c < cores; c++ {
			b = appendVarint(b, int64(e.LastAddr[c]-prevLast[c]))
			prevLast[c] = e.LastAddr[c]
		}
		prevOff = e.Offset
	}
	return b
}

// decodeIndex parses an index block payload. FirstRecord is
// reconstructed from the running count sum.
func decodeIndex(b []byte) ([]IndexEntry, error) {
	d := metaDecoder{b: b}
	n := d.uvarint()
	cores := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// Every entry costs at least 2+cores payload bytes (one-byte offset
	// and count varints plus one varint per core); reject counts the
	// block cannot possibly hold before allocating for them. The first
	// clause bounds n so the multiplication cannot overflow.
	if cores > maxCores || n > uint64(len(b))/2 || n*(2+cores) > uint64(len(b)) {
		return nil, corruptf("index declares %d entries, %d cores", n, cores)
	}
	entries := make([]IndexEntry, n)
	var off, first uint64
	prevLast := make([]uint64, cores)
	for i := range entries {
		off += d.uvarint()
		count := d.uvarint()
		last := make([]uint64, cores)
		for c := range last {
			prevLast[c] += uint64(d.varint())
			last[c] = prevLast[c]
		}
		if d.err != nil {
			return nil, d.err
		}
		if count == 0 || count > maxChunkBytes {
			return nil, corruptf("index entry %d declares %d records", i, count)
		}
		entries[i] = IndexEntry{Offset: off, FirstRecord: first, Count: uint32(count), LastAddr: last}
		first += count
	}
	if len(d.b) != 0 {
		return nil, corruptf("index block has %d trailing bytes", len(d.b))
	}
	return entries, nil
}

// encodeFooter renders the fixed v2 footer.
func encodeFooter(indexOff, total uint64, chunks uint32) []byte {
	out := make([]byte, 0, footerSize)
	out = binary.LittleEndian.AppendUint64(out, indexOff)
	out = binary.LittleEndian.AppendUint64(out, total)
	out = binary.LittleEndian.AppendUint32(out, chunks)
	return append(out, footerMagic...)
}

// decodeFooter parses and validates a footer block.
func decodeFooter(b []byte) (indexOff, total uint64, chunks uint32, err error) {
	if len(b) != footerSize || string(b[footerSize-4:]) != footerMagic {
		return 0, 0, 0, corruptf("bad footer")
	}
	indexOff = binary.LittleEndian.Uint64(b)
	total = binary.LittleEndian.Uint64(b[8:])
	chunks = binary.LittleEndian.Uint32(b[16:])
	return indexOff, total, chunks, nil
}

// metaDecoder walks the metadata block, latching the first error.
type metaDecoder struct {
	b   []byte
	err error
}

func (d *metaDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = corruptf("bad metadata varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *metaDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = corruptf("bad metadata varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *metaDecoder) str() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = corruptf("metadata string length %d exceeds block", n)
	}
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *metaDecoder) fixed64() uint64 {
	if d.err == nil && len(d.b) < 8 {
		d.err = corruptf("metadata block short of fixed64")
	}
	if d.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// decodeMeta parses a metadata block into h (refs/preamble fields are
// handled by the caller). Unknown trailing bytes are ignored.
func decodeMeta(b []byte, h *Header) error {
	d := metaDecoder{b: b}
	h.Workload = d.str()
	h.Design = d.str()
	h.Cores = int(d.uvarint())
	h.Seed = d.uvarint()
	h.Warm = int(d.uvarint())
	h.Measure = int(d.uvarint())
	h.OffChipMLP = math.Float64frombits(d.fixed64())
	if d.err != nil {
		return d.err
	}
	if h.Cores < 0 || h.Cores > maxCores {
		return corruptf("core count %d", h.Cores)
	}
	return nil
}
