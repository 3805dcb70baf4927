package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"rnuca/internal/trace"
)

// ErrNoIndex reports a readable trace that carries no chunk index (a v1
// file); sequential replay still works, random access does not.
var ErrNoIndex = errors.New("tracefile: trace has no chunk index (v1 format; rewrite with rnuca-trace index -upgrade)")

// IndexedReader provides random access to a v2 trace through its chunk
// index: Window returns independent cursors over record ranges, and
// Parallel fans chunk decoding across workers while
// preserving record order. Every read goes through an io.ReaderAt, and
// cursors carry their own decode state, so any number of cursors and
// parallel sources may run concurrently over one IndexedReader
// (os.File's ReadAt is concurrency-safe).
type IndexedReader struct {
	ra       io.ReaderAt
	closer   io.Closer
	hdr      Header
	idx      []IndexEntry
	total    uint64
	indexOff uint64

	// batchPool recycles the []Ref batches the parallel decoder hands
	// from workers to the consumer, so repeated Parallel runs over one
	// reader settle at O(workers) live batches instead of allocating
	// one per chunk.
	batchPool sync.Pool
}

// OpenIndexed opens a trace file for random access.
func OpenIndexed(path string) (*IndexedReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	x, err := NewIndexedReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	x.closer = f
	return x, nil
}

// NewIndexedReader builds an IndexedReader over size bytes of ra: the
// preamble is parsed from the front, the footer from the back, and the
// chunk index from the offset the footer names. A v1 trace yields
// ErrNoIndex.
func NewIndexedReader(ra io.ReaderAt, size int64) (*IndexedReader, error) {
	sr, err := NewReader(io.NewSectionReader(ra, 0, size))
	if err != nil {
		return nil, err
	}
	if sr.Version() < 2 {
		return nil, ErrNoIndex
	}
	if size < footerSize {
		return nil, corruptf("v2 trace of %d bytes cannot hold a footer", size)
	}
	var fb [footerSize]byte
	if _, err := ra.ReadAt(fb[:], size-footerSize); err != nil {
		return nil, corruptf("reading footer: %v", err)
	}
	indexOff, total, chunks, err := decodeFooter(fb[:])
	if err != nil {
		return nil, err
	}
	if indexOff > uint64(size)-frameSize-footerSize {
		return nil, corruptf("footer places index at %d in a %d-byte file", indexOff, size)
	}
	x := &IndexedReader{ra: ra, hdr: sr.Header(), total: total, indexOff: indexOff}
	if err := x.loadIndex(indexOff, chunks, size); err != nil {
		return nil, err
	}
	return x, nil
}

// loadIndex reads, decompresses, and cross-checks the index section.
func (x *IndexedReader) loadIndex(indexOff uint64, chunks uint32, size int64) error {
	var frame [frameSize]byte
	if _, err := x.ra.ReadAt(frame[:], int64(indexOff)); err != nil {
		return corruptf("reading index frame: %v", err)
	}
	compLen := binary.LittleEndian.Uint32(frame[0:])
	rawLen := binary.LittleEndian.Uint32(frame[4:])
	if binary.LittleEndian.Uint32(frame[8:]) != indexMarker {
		return corruptf("footer offset %d holds no index frame", indexOff)
	}
	if compLen == 0 || compLen > maxChunkBytes || rawLen > maxChunkBytes ||
		indexOff+frameSize+uint64(compLen) > uint64(size) {
		return corruptf("index frame lengths %d/%d", compLen, rawLen)
	}
	dec := chunkDecoder{comp: make([]byte, compLen)}
	if _, err := x.ra.ReadAt(dec.comp, int64(indexOff)+frameSize); err != nil {
		return corruptf("reading index section: %v", err)
	}
	if !dec.load(rawLen, 0) {
		return dec.err
	}
	idx, err := decodeIndex(dec.raw)
	if err != nil {
		return err
	}
	if uint32(len(idx)) != chunks {
		return corruptf("index holds %d chunks, footer declares %d", len(idx), chunks)
	}
	var prevEnd uint64 = 0
	var records uint64
	for i, e := range idx {
		if e.Offset < prevEnd || e.Offset >= indexOff {
			return corruptf("index entry %d at offset %d out of order", i, e.Offset)
		}
		if x.hdr.Cores != 0 && len(e.LastAddr) != x.hdr.Cores {
			return corruptf("index entry %d carries %d cores, header %d", i, len(e.LastAddr), x.hdr.Cores)
		}
		prevEnd = e.Offset + frameSize
		records += uint64(e.Count)
	}
	if records != x.total {
		return corruptf("index covers %d records, footer declares %d", records, x.total)
	}
	x.idx = idx
	return nil
}

// Header returns the trace metadata.
func (x *IndexedReader) Header() Header { return x.hdr }

// Refs returns the total record count (from the footer, so it is exact
// even for traces whose preamble count was never patched).
func (x *IndexedReader) Refs() uint64 { return x.total }

// Chunks returns the number of chunks in the index.
func (x *IndexedReader) Chunks() int { return len(x.idx) }

// Entry returns the i-th chunk's index entry.
func (x *IndexedReader) Entry(i int) IndexEntry { return x.idx[i] }

// ChunkCompressedBytes returns chunk i's compressed payload size.
// Chunks are written back to back, so it is the gap to the next frame
// (the index frame, after the last chunk) minus the frame header.
// rnuca-trace's index -stats uses it for corpus hygiene reports.
func (x *IndexedReader) ChunkCompressedBytes(i int) uint64 {
	end := x.indexOff
	if i+1 < len(x.idx) {
		end = x.idx[i+1].Offset
	}
	return end - x.idx[i].Offset - frameSize
}

// Close closes the underlying file when the reader owns one. Cursors
// must not be used afterwards.
func (x *IndexedReader) Close() error {
	if x.closer == nil {
		return nil
	}
	err := x.closer.Close()
	x.closer = nil
	return err
}

// chunkFor returns the index of the chunk holding record n.
func (x *IndexedReader) chunkFor(n uint64) int {
	return sort.Search(len(x.idx), func(i int) bool {
		return x.idx[i].FirstRecord+uint64(x.idx[i].Count) > n
	})
}

// Window returns a cursor over records [start, start+n).
func (x *IndexedReader) Window(start, n uint64) (*Cursor, error) {
	if start > x.total || n > x.total-start {
		return nil, fmt.Errorf("tracefile: window [%d,%d) outside trace of %d records",
			start, start+n, x.total)
	}
	cores := x.hdr.Cores
	if cores == 0 {
		cores = maxCores
	}
	return &Cursor{
		x: x, start: start, limit: start + n, next: start, chunk: -1,
		dec: chunkDecoder{lastAddr: make([]uint64, cores)},
	}, nil
}

// Cursor streams a record range of an indexed trace. It implements
// trace.RefSource (and Rewinder, restarting at the range's first
// record); Err distinguishes a clean range end from structural damage.
// A Cursor is single-goroutine, but any number of cursors may run
// concurrently over one IndexedReader.
type Cursor struct {
	x            *IndexedReader
	start, limit uint64
	next         uint64 // absolute record number of the next record
	chunk        int    // chunk the decoder currently holds, -1 before the first
	eof          bool
	dec          chunkDecoder
}

// Err returns the first error encountered, or nil after a clean end.
func (c *Cursor) Err() error { return c.dec.err }

// Rewind implements trace.Rewinder, restarting at the range's first
// record. Like the streaming reader, it refuses after a read error.
func (c *Cursor) Rewind() error {
	if c.dec.err != nil {
		return c.dec.err
	}
	c.next = c.start
	c.chunk = -1
	c.eof = false
	c.dec.raw = c.dec.raw[:0]
	c.dec.pos = 0
	return nil
}

// Next implements trace.RefSource.
func (c *Cursor) Next() (trace.Ref, bool) {
	if c.dec.err != nil || c.eof {
		return trace.Ref{}, false
	}
	if c.next >= c.limit {
		c.eof = true
		return trace.Ref{}, false
	}
	for c.dec.drained() {
		if c.chunk >= 0 && !c.dec.checkComplete() {
			return trace.Ref{}, false
		}
		if c.chunk >= 0 && !c.dec.checkSnapshot(c.chunk, c.x.idx[c.chunk].LastAddr) {
			return trace.Ref{}, false
		}
		next := c.chunk + 1
		if c.chunk < 0 {
			next = c.x.chunkFor(c.next)
		}
		if !c.loadChunk(next) {
			return trace.Ref{}, false
		}
	}
	r, ok := c.dec.decode()
	if ok {
		c.next++
	}
	return r, ok
}

// checkSnapshot verifies a fully-decoded chunk i's final delta state
// against the index's per-core snapshot — cheap end-to-end integrity
// for random access, where the terminator's running total is out of
// reach. Chunks entered mid-way (a seek skips records by decoding from
// the chunk start, so state is complete regardless) always qualify.
func (d *chunkDecoder) checkSnapshot(i int, snapshot []uint64) bool {
	for core, want := range snapshot {
		if core < len(d.lastAddr) && d.lastAddr[core] != want {
			d.fail(corruptf("chunk %d core %d ends at %#x, index snapshot %#x",
				i, core, d.lastAddr[core], want))
			return false
		}
	}
	return true
}

// loadChunk reads chunk i via ReadAt, decompresses it, and skips to the
// cursor's next record.
func (c *Cursor) loadChunk(i int) bool {
	if i >= len(c.x.idx) {
		c.dec.fail(corruptf("record %d beyond the indexed chunks", c.next))
		return false
	}
	if err := c.x.readChunk(&c.dec, i); err != nil {
		c.dec.fail(err)
		return false
	}
	c.chunk = i
	for skip := c.next - c.x.idx[i].FirstRecord; skip > 0; skip-- {
		if _, ok := c.dec.decode(); !ok {
			return false
		}
	}
	return true
}

var (
	_ trace.RefSource = (*Cursor)(nil)
	_ trace.Rewinder  = (*Cursor)(nil)
)

// ParallelSource decodes a record range with several workers and yields
// refs in exact file order, so a replay fed by it is bit-identical to a
// sequential one while chunk decompression overlaps the simulation. It
// implements trace.RefSource (and Rewinder, restarting the pipeline).
// The consumer side is single-goroutine; decoded-but-unconsumed chunks
// are bounded by workers+2, so memory stays at O(workers) chunks however
// long the trace.
type ParallelSource struct {
	x            *IndexedReader
	start, limit uint64
	workers      int
	firstChunk   int
	lastChunk    int

	started bool
	nextJob int64
	sem     chan struct{}
	stop    chan struct{}
	res     []chan chunkBatch
	wg      sync.WaitGroup

	cur       []trace.Ref
	curBatch  []trace.Ref // cur's full backing batch, recycled once drained
	pos       int
	chunkI    int // next pipeline slot to take from res
	delivered uint64
	err       error
}

type chunkBatch struct {
	refs []trace.Ref
	err  error
}

// Parallel returns a ParallelSource over records [start, start+n)
// decoded by the given number of workers.
func (x *IndexedReader) Parallel(workers int, start, n uint64) (*ParallelSource, error) {
	if workers < 1 {
		return nil, fmt.Errorf("tracefile: %d parallel workers", workers)
	}
	if start > x.total || n > x.total-start {
		return nil, fmt.Errorf("tracefile: window [%d,%d) outside trace of %d records",
			start, start+n, x.total)
	}
	p := &ParallelSource{x: x, start: start, limit: start + n, workers: workers}
	if n > 0 {
		p.firstChunk = x.chunkFor(start)
		p.lastChunk = x.chunkFor(start + n - 1)
	} else {
		p.firstChunk, p.lastChunk = 0, -1
	}
	return p, nil
}

// readChunk reads chunk i's frame and compressed payload, checks the
// frame's record count against the index and bounds its lengths, and
// loads the payload into dec, ready to decode from the chunk start.
//
//rnuca:hotpath
func (x *IndexedReader) readChunk(dec *chunkDecoder, i int) error {
	e := &x.idx[i]
	//rnuca:alloc-ok ReaderAt is the random-access seam (os.File or section reader); one dispatch per chunk, not per record
	if _, err := x.ra.ReadAt(dec.frame[:], int64(e.Offset)); err != nil {
		return corruptf("chunk %d frame: %v", i, err)
	}
	compLen := binary.LittleEndian.Uint32(dec.frame[0:])
	rawLen := binary.LittleEndian.Uint32(dec.frame[4:])
	count := binary.LittleEndian.Uint32(dec.frame[8:])
	if count != e.Count {
		return corruptf("chunk %d declares %d records, index %d", i, count, e.Count)
	}
	if err := checkChunkFrame(compLen, rawLen, count); err != nil {
		return err
	}
	if cap(dec.comp) < int(compLen) {
		//rnuca:alloc-ok decompress buffer grows to the chunk high-water mark once, then is recycled across chunks
		dec.comp = make([]byte, compLen)
	}
	dec.comp = dec.comp[:compLen]
	//rnuca:alloc-ok ReaderAt is the random-access seam; one dispatch per chunk, not per record
	if _, err := x.ra.ReadAt(dec.comp, int64(e.Offset)+frameSize); err != nil {
		return corruptf("chunk %d payload: %v", i, err)
	}
	if !dec.load(rawLen, count) {
		return dec.err
	}
	return nil
}

// decodeChunk decompresses chunk i in full and verifies it against the
// index (record count and per-core snapshot). The records are appended
// to dst[:0], so callers can recycle batch backing arrays.
//
//rnuca:hotpath
func (x *IndexedReader) decodeChunk(dec *chunkDecoder, i int, dst []trace.Ref) ([]trace.Ref, error) {
	if err := x.readChunk(dec, i); err != nil {
		return nil, err
	}
	count := x.idx[i].Count
	refs := dst[:0]
	if cap(refs) < int(count) {
		//rnuca:alloc-ok batch buffers come from batchPool and grow to chunk-size capacity once, then recycle
		refs = make([]trace.Ref, 0, count)
	}
	for !dec.drained() {
		r, ok := dec.decode()
		if !ok {
			return nil, dec.err
		}
		//rnuca:alloc-ok capacity is preallocated to the chunk record count above; this append never grows
		refs = append(refs, r)
	}
	if !dec.checkComplete() || !dec.checkSnapshot(i, x.idx[i].LastAddr) {
		return nil, dec.err
	}
	return refs, nil
}

// startPipeline launches the workers. Tokens are acquired before jobs,
// so the lowest outstanding chunk always has a worker actively decoding
// it and the pipeline cannot deadlock however the decode times skew.
func (p *ParallelSource) startPipeline() {
	chunks := p.lastChunk - p.firstChunk + 1
	p.sem = make(chan struct{}, p.workers+2)
	p.stop = make(chan struct{})
	p.res = make([]chan chunkBatch, chunks)
	for i := range p.res {
		p.res[i] = make(chan chunkBatch, 1)
	}
	atomic.StoreInt64(&p.nextJob, 0)
	p.started = true
	for w := 0; w < p.workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			cores := p.x.hdr.Cores
			if cores == 0 {
				cores = maxCores
			}
			dec := &chunkDecoder{lastAddr: make([]uint64, cores)}
			for {
				select {
				case <-p.stop:
					return
				case p.sem <- struct{}{}:
				}
				slot := int(atomic.AddInt64(&p.nextJob, 1)) - 1
				if slot >= len(p.res) {
					<-p.sem
					return
				}
				// Batches cycle through the reader's pool: the consumer
				// returns each batch as it drains, so steady state runs
				// on O(workers) batch arrays however long the trace.
				var dst []trace.Ref
				if b, ok := p.x.batchPool.Get().(*[]trace.Ref); ok {
					dst = *b
				}
				refs, err := p.x.decodeChunk(dec, p.firstChunk+slot, dst)
				p.res[slot] <- chunkBatch{refs: refs, err: err} // buffered; never blocks
			}
		}()
	}
}

// Next implements trace.RefSource.
func (p *ParallelSource) Next() (trace.Ref, bool) {
	if p.err != nil {
		return trace.Ref{}, false
	}
	if !p.started {
		p.startPipeline()
	}
	for p.pos >= len(p.cur) {
		p.recycleBatch()
		if p.delivered >= p.limit-p.start || p.chunkI >= len(p.res) {
			return trace.Ref{}, false
		}
		b := <-p.res[p.chunkI]
		<-p.sem // chunk delivered; let a worker decode further ahead
		if b.err != nil {
			p.err = b.err
			return trace.Ref{}, false
		}
		e := p.x.idx[p.firstChunk+p.chunkI]
		refs := b.refs
		if e.FirstRecord < p.start {
			refs = refs[p.start-e.FirstRecord:]
		}
		if end := e.FirstRecord + uint64(e.Count); end > p.limit {
			refs = refs[:len(refs)-int(end-p.limit)]
		}
		p.chunkI++
		p.cur, p.curBatch, p.pos = refs, b.refs, 0
	}
	r := p.cur[p.pos]
	p.pos++
	p.delivered++
	return r, true
}

// recycleBatch returns the drained batch's backing array to the
// reader's pool for a decode worker to refill.
func (p *ParallelSource) recycleBatch() {
	if p.curBatch == nil {
		return
	}
	b := p.curBatch[:0]
	p.cur, p.curBatch = nil, nil
	p.x.batchPool.Put(&b)
}

// Err returns the first error encountered, or nil after a clean end.
func (p *ParallelSource) Err() error { return p.err }

// Rewind implements trace.Rewinder, restarting the pipeline at the
// range's first record. Like the streaming reader, it refuses after a
// read error.
func (p *ParallelSource) Rewind() error {
	if p.err != nil {
		return p.err
	}
	p.Close()
	p.recycleBatch()
	p.started = false
	p.cur, p.pos, p.chunkI, p.delivered = nil, 0, 0, 0
	return nil
}

// Close stops the workers; safe to call repeatedly and after exhaustion.
func (p *ParallelSource) Close() {
	if !p.started {
		return
	}
	close(p.stop)
	// Result sends are buffered one per chunk and token acquisition
	// selects on stop, so every worker terminates.
	p.wg.Wait()
	p.started = false
}

var (
	_ trace.RefSource = (*ParallelSource)(nil)
	_ trace.Rewinder  = (*ParallelSource)(nil)
)
