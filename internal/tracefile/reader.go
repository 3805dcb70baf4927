package tracefile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

// chunkDecoder decodes records out of one chunk. It owns the reusable
// frame and decompression buffers and the per-core delta state, so the
// streaming Reader and the indexed cursors share a single decode
// implementation; errors latch in err. After the setup allocations,
// loading and decoding chunks is allocation-free (buffers are reused
// across chunks).
type chunkDecoder struct {
	raw      []byte // decompressed payload of the current chunk
	pos      int
	nref     uint32 // records decoded so far in the current chunk
	declared uint32 // record count the chunk frame declared
	lastAddr []uint64
	err      error

	gz     *gzip.Reader
	compRd bytes.Reader
	comp   []byte
	frame  [frameSize]byte
}

// fail latches the first error.
func (d *chunkDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// drained reports whether the current chunk payload is fully consumed.
func (d *chunkDecoder) drained() bool { return d.pos >= len(d.raw) }

// checkComplete verifies the finished chunk held exactly the record
// count its frame declared.
func (d *chunkDecoder) checkComplete() bool {
	if d.nref != d.declared {
		d.fail(corruptf("chunk declared %d records, decoded %d", d.declared, d.nref))
		return false
	}
	return true
}

// load decompresses the chunk payload sitting in d.comp and resets the
// per-chunk decode state. DEFLATE cannot expand below ~1/1032 of the
// output, so a declared rawLen far beyond what the compressed payload
// could produce is rejected before the output buffer is sized — corrupt
// frames cannot force large allocations that the gzip CRC would only
// catch afterwards.
func (d *chunkDecoder) load(rawLen, count uint32) bool {
	if uint64(rawLen) > 1032*uint64(len(d.comp))+64 {
		d.fail(corruptf("chunk declares %d raw bytes from %d compressed", rawLen, len(d.comp)))
		return false
	}
	d.compRd.Reset(d.comp)
	if d.gz == nil {
		gz, err := gzip.NewReader(&d.compRd)
		if err != nil {
			d.fail(corruptf("chunk gzip header: %v", err))
			return false
		}
		d.gz = gz
	} else if err := d.gz.Reset(&d.compRd); err != nil {
		d.fail(corruptf("chunk gzip header: %v", err))
		return false
	}
	if cap(d.raw) < int(rawLen) {
		d.raw = make([]byte, rawLen)
	}
	d.raw = d.raw[:rawLen]
	if _, err := io.ReadFull(d.gz, d.raw); err != nil {
		d.fail(corruptf("chunk decompression: %v", err))
		return false
	}
	var one [1]byte
	if n, _ := d.gz.Read(one[:]); n != 0 {
		d.fail(corruptf("chunk longer than its declared %d bytes", rawLen))
		return false
	}
	d.pos = 0
	d.nref = 0
	d.declared = count
	for c := range d.lastAddr {
		d.lastAddr[c] = 0
	}
	return true
}

func (d *chunkDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.raw[d.pos:])
	if n <= 0 {
		d.fail(corruptf("bad record varint at chunk offset %d", d.pos))
		return 0
	}
	d.pos += n
	return v
}

func (d *chunkDecoder) varint() int64 {
	v, n := binary.Varint(d.raw[d.pos:])
	if n <= 0 {
		d.fail(corruptf("bad record varint at chunk offset %d", d.pos))
		return 0
	}
	d.pos += n
	return v
}

// decode parses one record at d.pos. Field bounds are tightened to what
// the in-memory representation can hold on every platform: busy and the
// reconstructed thread must fit an int32, so int conversions cannot
// overflow even on 32-bit builds.
//
//rnuca:hotpath
func (d *chunkDecoder) decode() (trace.Ref, bool) {
	if d.nref >= d.declared {
		d.fail(corruptf("chunk payload holds more than its declared %d records", d.declared))
		return trace.Ref{}, false
	}
	kc := d.raw[d.pos]
	d.pos++
	kind := trace.Kind(kc & 0x0f)
	class := cache.Class(kc >> 4)
	if kind > trace.Store || class > cache.ClassShared {
		d.fail(corruptf("bad kind/class byte %#x", kc))
		return trace.Ref{}, false
	}
	core := d.uvarint()
	threadDelta := d.varint()
	addrDelta := d.varint()
	busy := d.uvarint()
	if d.err != nil {
		return trace.Ref{}, false
	}
	if core >= uint64(len(d.lastAddr)) {
		d.fail(corruptf("record core %d outside header's %d cores", core, len(d.lastAddr)))
		return trace.Ref{}, false
	}
	if busy > math.MaxInt32 {
		d.fail(corruptf("implausible busy count %d", busy))
		return trace.Ref{}, false
	}
	thread := int64(core) + threadDelta
	if thread < 0 || thread > math.MaxInt32 {
		d.fail(corruptf("record thread %d out of range", thread))
		return trace.Ref{}, false
	}
	addr := d.lastAddr[core] + uint64(addrDelta)
	d.lastAddr[core] = addr
	d.nref++
	return trace.Ref{
		Core:   int(core),
		Thread: int(thread),
		Kind:   kind,
		Addr:   addr,
		Class:  class,
		Busy:   int(busy),
	}, true
}

// Reader streams references back out of a trace, v1 or v2. It implements
// trace.RefSource; after NewReader's setup allocations, Next decodes
// records without allocating (buffers are reused across chunks).
//
// Next follows the bufio.Scanner error convention: it returns false at
// the clean end of the trace and on error alike; Err distinguishes the
// two.
type Reader struct {
	br      *bufio.Reader
	hdr     Header
	version int
	eof     bool

	total     uint64
	chunks    uint32
	seenIndex bool

	dec chunkDecoder
}

// NewReader parses the preamble from r and returns a streaming Reader
// over its chunks.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	pre := make([]byte, countOffset+8)
	if _, err := io.ReadFull(br, pre); err != nil {
		return nil, corruptf("short preamble: %v", err)
	}
	if string(pre[:4]) != magic {
		return nil, corruptf("bad magic %q", pre[:4])
	}
	version := int(binary.LittleEndian.Uint16(pre[4:]))
	if version != versionV1 && version != Version {
		return nil, fmt.Errorf("tracefile: unsupported format version %d (have %d)", version, Version)
	}
	var hdr Header
	hdr.Refs = binary.LittleEndian.Uint64(pre[countOffset:])
	metaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, corruptf("metadata length: %v", err)
	}
	if metaLen > maxMetaBytes {
		return nil, corruptf("metadata block %d bytes", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(br, meta); err != nil {
		return nil, corruptf("short metadata block: %v", err)
	}
	if err := decodeMeta(meta, &hdr); err != nil {
		return nil, err
	}
	cores := hdr.Cores
	if cores == 0 {
		cores = maxCores // headerless core count: accept any in-range core
	}
	return &Reader{
		br: br, hdr: hdr, version: version,
		dec: chunkDecoder{lastAddr: make([]uint64, cores)},
	}, nil
}

// Header returns the trace metadata.
func (r *Reader) Header() Header { return r.hdr }

// Version returns the trace's on-disk format version (1 or 2).
func (r *Reader) Version() int { return r.version }

// Total returns the number of records decoded so far.
func (r *Reader) Total() uint64 { return r.total }

// Err returns the first error encountered, or nil after a clean end of
// trace.
func (r *Reader) Err() error { return r.dec.err }

// Next implements trace.RefSource.
func (r *Reader) Next() (trace.Ref, bool) {
	if r.dec.err != nil || r.eof {
		return trace.Ref{}, false
	}
	for r.dec.drained() {
		if !r.nextChunk() {
			return trace.Ref{}, false
		}
	}
	ref, ok := r.dec.decode()
	if ok {
		r.total++
	}
	return ref, ok
}

// nextChunk reads and decompresses the next data chunk, skipping the v2
// index section, and returns false at the terminator or on error. At the
// terminator of a v2 trace the footer is read and validated too, so
// truncation anywhere in the file surfaces as an error.
func (r *Reader) nextChunk() bool {
	if !r.dec.checkComplete() {
		return false
	}
	for {
		if _, err := io.ReadFull(r.br, r.dec.frame[:]); err != nil {
			r.dec.fail(corruptf("short chunk frame: %v", err))
			return false
		}
		compLen := binary.LittleEndian.Uint32(r.dec.frame[0:])
		rawLen := binary.LittleEndian.Uint32(r.dec.frame[4:])
		count := binary.LittleEndian.Uint32(r.dec.frame[8:])
		if compLen == 0 {
			// Terminator: the count field carries the low bits of the total.
			if rawLen != 0 || count != uint32(r.total) {
				r.dec.fail(corruptf("terminator count %d, decoded %d records", count, r.total))
				return false
			}
			if r.hdr.Refs != 0 && r.hdr.Refs != r.total {
				r.dec.fail(corruptf("header declares %d records, decoded %d", r.hdr.Refs, r.total))
				return false
			}
			if r.version >= 2 && !r.checkFooter() {
				return false
			}
			r.eof = true
			return false
		}
		if count == indexMarker {
			// The v2 chunk index: the streaming reader skips it (the
			// IndexedReader is its consumer), validating the frame.
			if r.version < 2 || r.seenIndex {
				r.dec.fail(corruptf("unexpected index section"))
				return false
			}
			if compLen > maxChunkBytes || rawLen > maxChunkBytes {
				r.dec.fail(corruptf("index frame lengths %d/%d", compLen, rawLen))
				return false
			}
			if _, err := r.br.Discard(int(compLen)); err != nil {
				r.dec.fail(corruptf("short index section: %v", err))
				return false
			}
			r.seenIndex = true
			continue
		}
		if err := checkChunkFrame(compLen, rawLen, count); err != nil {
			r.dec.fail(err)
			return false
		}
		if r.seenIndex {
			r.dec.fail(corruptf("data chunk after the index section"))
			return false
		}
		if cap(r.dec.comp) < int(compLen) {
			r.dec.comp = make([]byte, compLen)
		}
		r.dec.comp = r.dec.comp[:compLen]
		if _, err := io.ReadFull(r.br, r.dec.comp); err != nil {
			r.dec.fail(corruptf("short chunk payload: %v", err))
			return false
		}
		if !r.dec.load(rawLen, count) {
			return false
		}
		r.chunks++
		return true
	}
}

// checkFooter reads and validates the v2 footer against the stream just
// decoded. A v2 writer always emits the index section, so its absence is
// structural damage too.
func (r *Reader) checkFooter() bool {
	if !r.seenIndex {
		r.dec.fail(corruptf("v2 trace without an index section"))
		return false
	}
	var fb [footerSize]byte
	if _, err := io.ReadFull(r.br, fb[:]); err != nil {
		r.dec.fail(corruptf("short footer: %v", err))
		return false
	}
	_, total, chunks, err := decodeFooter(fb[:])
	if err != nil {
		r.dec.fail(err)
		return false
	}
	if total != r.total || chunks != r.chunks {
		r.dec.fail(corruptf("footer declares %d records in %d chunks, decoded %d in %d",
			total, chunks, r.total, r.chunks))
		return false
	}
	return true
}

// ReadAll decodes an entire trace from r.
func ReadAll(r io.Reader) (Header, []trace.Ref, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	var refs []trace.Ref
	for {
		ref, ok := tr.Next()
		if !ok {
			break
		}
		refs = append(refs, ref)
	}
	return tr.Header(), refs, tr.Err()
}

var _ trace.RefSource = (*Reader)(nil)
