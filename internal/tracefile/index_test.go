package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rnuca/internal/trace"
)

// indexedOver writes refs at the given chunking and opens the bytes
// through the random-access path.
func indexedOver(t *testing.T, refs []trace.Ref, cores, chunk int) *IndexedReader {
	t.Helper()
	data := writeTrace(t, Header{Workload: "idx", Cores: cores}, refs, chunk)
	x, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func drainCursor(t *testing.T, c *Cursor) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The index matches the chunks: offsets, record ranges, and per-core
// snapshots all line up, and a window from every chunk boundary (and the
// records around it) to the end reproduces the sequential stream.
func TestIndexSeekEveryBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	refs := randRefs(rng, 1500, 5)
	x := indexedOver(t, refs, 5, 64)
	if x.Refs() != uint64(len(refs)) {
		t.Fatalf("index sees %d refs, wrote %d", x.Refs(), len(refs))
	}
	if want := (len(refs) + 63) / 64; x.Chunks() != want {
		t.Fatalf("%d chunks, want %d", x.Chunks(), want)
	}
	var starts []uint64
	for i := 0; i < x.Chunks(); i++ {
		starts = append(starts, x.Entry(i).FirstRecord)
	}
	starts = append(starts, x.Refs()-1, x.Refs())
	for _, s := range starts {
		for _, at := range []uint64{s, s + 1} {
			if at > x.Refs() {
				continue
			}
			cur, err := x.Window(at, x.Refs()-at)
			if err != nil {
				t.Fatalf("seek %d: %v", at, err)
			}
			got := drainCursor(t, cur)
			want := refs[at:]
			if len(got) != len(want) {
				t.Fatalf("seek %d: read %d of %d refs", at, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seek %d ref %d: %+v != %+v", at, i, got[i], want[i])
				}
			}
		}
	}
}

// Windows of every alignment decode exactly their records, and a cursor
// rewinds to its window start.
func TestIndexWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	refs := randRefs(rng, 700, 3)
	x := indexedOver(t, refs, 3, 50)
	for trial := 0; trial < 200; trial++ {
		start := uint64(rng.Intn(len(refs) + 1))
		n := uint64(rng.Intn(len(refs) + 1 - int(start)))
		cur, err := x.Window(start, n)
		if err != nil {
			t.Fatalf("window %d+%d: %v", start, n, err)
		}
		for pass := 0; pass < 2; pass++ {
			got := drainCursor(t, cur)
			if uint64(len(got)) != n {
				t.Fatalf("window %d+%d pass %d: read %d refs", start, n, pass, len(got))
			}
			for i := range got {
				if got[i] != refs[start+uint64(i)] {
					t.Fatalf("window %d+%d ref %d: %+v != %+v", start, n, i, got[i], refs[start+uint64(i)])
				}
			}
			if err := cur.Rewind(); err != nil {
				t.Fatalf("rewind: %v", err)
			}
		}
	}
	if _, err := x.Window(uint64(len(refs)), 1); err == nil {
		t.Fatal("out-of-range window accepted")
	}
}

// k contiguous windows that tile the trace decode to the full trace in
// order, whatever their chunk alignment. The windows are drained
// concurrently to exercise the shared-IndexedReader path.
func TestIndexShardUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	refs := randRefs(rng, 997, 4) // prime length: uneven shard split
	x := indexedOver(t, refs, 4, 64)
	for _, k := range []int{1, 2, 3, 7, 16} {
		parts := make([][]trace.Ref, k)
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			cur, err := part(x, i, k)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, k, err)
			}
			wg.Add(1)
			go func(i int, cur *Cursor) {
				defer wg.Done()
				for {
					r, ok := cur.Next()
					if !ok {
						break
					}
					parts[i] = append(parts[i], r)
				}
			}(i, cur)
		}
		wg.Wait()
		var union []trace.Ref
		for i := range parts {
			union = append(union, parts[i]...)
		}
		if len(union) != len(refs) {
			t.Fatalf("k=%d: union holds %d of %d refs", k, len(union), len(refs))
		}
		for i := range refs {
			if union[i] != refs[i] {
				t.Fatalf("k=%d: union ref %d: %+v != %+v", k, i, union[i], refs[i])
			}
		}
	}
}

// part returns the i-th of k contiguous windows that tile x's records.
func part(x *IndexedReader, i, k int) (*Cursor, error) {
	lo, hi := x.Refs()*uint64(i)/uint64(k), x.Refs()*uint64(i+1)/uint64(k)
	return x.Window(lo, hi-lo)
}

// The parallel source yields the byte-identical stream a sequential read
// does, for assorted worker counts and windows, and restarts cleanly.
func TestParallelSourceOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	refs := randRefs(rng, 2000, 6)
	x := indexedOver(t, refs, 6, 128)
	for _, workers := range []int{1, 2, 4, 9} {
		for _, win := range [][2]uint64{{0, 2000}, {100, 1500}, {1990, 10}, {0, 0}, {64, 64}} {
			p, err := x.Parallel(workers, win[0], win[1])
			if err != nil {
				t.Fatalf("parallel %d %v: %v", workers, win, err)
			}
			for pass := 0; pass < 2; pass++ {
				var got []trace.Ref
				for {
					r, ok := p.Next()
					if !ok {
						break
					}
					got = append(got, r)
				}
				if err := p.Err(); err != nil {
					t.Fatal(err)
				}
				if uint64(len(got)) != win[1] {
					t.Fatalf("workers %d window %v pass %d: read %d refs", workers, win, pass, len(got))
				}
				for i := range got {
					if got[i] != refs[win[0]+uint64(i)] {
						t.Fatalf("workers %d window %v ref %d: %+v != %+v",
							workers, win, i, got[i], refs[win[0]+uint64(i)])
					}
				}
				if err := p.Rewind(); err != nil {
					t.Fatalf("rewind: %v", err)
				}
			}
			p.Close()
		}
	}
}

// Closing a parallel source mid-stream terminates its workers without
// wedging, however little was consumed.
func TestParallelSourceEarlyClose(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	refs := randRefs(rng, 3000, 2)
	x := indexedOver(t, refs, 2, 32)
	for _, consume := range []int{0, 1, 500} {
		p, err := x.Parallel(4, 0, uint64(len(refs)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < consume; i++ {
			if _, ok := p.Next(); !ok {
				t.Fatalf("source dry after %d refs", i)
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

// v1 files (no index, no footer) remain fully readable through the
// sequential path and are cleanly refused by the random-access one.
func TestV1StillReadable(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	refs := randRefs(rng, 400, 3)
	hdr := Header{Workload: "old", Design: "P", Cores: 3, Seed: 7, OffChipMLP: 1.5}

	var buf bytes.Buffer
	w, err := newWriterVersion(&buf, hdr, versionV1)
	if err != nil {
		t.Fatal(err)
	}
	w.ChunkRefs = 64
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if v := binary.LittleEndian.Uint16(data[4:]); v != versionV1 {
		t.Fatalf("compat writer stamped version %d", v)
	}

	got, back, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reading v1: %v", err)
	}
	if got.Workload != hdr.Workload || len(back) != len(refs) {
		t.Fatalf("v1 round trip: hdr %+v, %d refs", got, len(back))
	}
	for i := range refs {
		if back[i] != refs[i] {
			t.Fatalf("v1 ref %d: %+v != %+v", i, back[i], refs[i])
		}
	}

	if _, err := NewIndexedReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("v1 through the indexed path: %v", err)
	}
}

// A v2 trace opened from disk serves concurrent cursors over one shared
// file descriptor.
func TestOpenIndexedFromDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	refs := randRefs(rng, 800, 4)
	path := filepath.Join(t.TempDir(), "t.rnt")
	fw, err := Create(path, Header{Workload: "disk", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	fw.ChunkRefs = 100
	for _, r := range refs {
		fw.Write(r)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	x, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		cur, err := part(x, g%3, 3)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cur *Cursor) {
			defer wg.Done()
			drainCursor(t, cur)
		}(cur)
	}
	wg.Wait()
}

// OpenRange streams the whole trace, v1 included, and opens any other
// range, and any sharded read, through the index. Every source it
// returns rewinds to its range's start.
func TestOpenRange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	refs := randRefs(rng, 900, 4)
	hdr := Header{Workload: "range", Cores: 4}
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.rnt")
	if err := os.WriteFile(v2, writeTrace(t, hdr, refs, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := newWriterVersion(&buf, hdr, versionV1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		w.Write(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "v1.rnt")
	if err := os.WriteFile(v1, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path     string
		start, n uint64
		shards   int
	}{
		{v1, 0, 0, 1}, {v2, 0, 0, 1}, {v2, 0, 0, 3}, {v2, 250, 0, 1}, {v2, 250, 400, 1}, {v2, 0, 400, 2},
	} {
		src, done, err := OpenRange(c.path, c.start, c.n, c.shards)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want := refs[c.start:]
		if c.n > 0 {
			want = want[:c.n]
		}
		for pass := 0; pass < 2; pass++ {
			var got []trace.Ref
			for {
				r, ok := src.Next()
				if !ok {
					break
				}
				got = append(got, r)
			}
			if len(got) != len(want) {
				t.Fatalf("%+v pass %d: read %d of %d refs", c, pass, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v pass %d ref %d: %+v != %+v", c, pass, i, got[i], want[i])
				}
			}
			if err := src.(trace.Rewinder).Rewind(); err != nil {
				t.Fatalf("%+v: rewind: %v", c, err)
			}
		}
		if err := done(); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
	if _, _, err := OpenRange(v1, 10, 0, 1); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("window of a v1 trace: %v, want ErrNoIndex", err)
	}
	if _, _, err := OpenRange(v2, 901, 0, 1); err == nil {
		t.Fatal("window past the end accepted")
	}
}

// Flipping bytes inside a chunk payload must surface through the cursor
// integrity checks (frame bounds, gzip CRC, record count, or the
// index's per-core snapshot), never decode silently.
func TestIndexDetectsCorruptChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	refs := randRefs(rng, 600, 2)
	data := writeTrace(t, Header{Workload: "c", Cores: 2}, refs, 64)
	x, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	e := x.Entry(3)
	for _, off := range []uint64{e.Offset + 4, e.Offset + frameSize + 3} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x5A
		bx, err := NewIndexedReader(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			continue // damage caught at open time: fine
		}
		cur, err := bx.Window(0, bx.Refs())
		if err != nil {
			continue
		}
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		if cur.Err() == nil {
			t.Fatalf("corruption at %d decoded silently", off)
		}
	}
}

// However large ChunkRefs is set, incompressible refs split into chunks
// whose frames stay inside the format's byte bound, and the result
// remains readable by both paths.
func TestWriterSplitsOversizedChunks(t *testing.T) {
	defer func(old int) { maxChunkRaw = old }(maxChunkRaw)
	maxChunkRaw = 1 << 12 // 4KB raw bound keeps the test fast

	rng := rand.New(rand.NewSource(29))
	refs := make([]trace.Ref, 4000)
	for i := range refs {
		refs[i] = trace.Ref{Core: i % 2, Thread: i % 2, Addr: rng.Uint64(), Busy: rng.Intn(100)}
	}
	data := writeTrace(t, Header{Workload: "big", Cores: 2}, refs, 1<<30)

	x, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if x.Chunks() < 2 {
		t.Fatalf("oversized chunk not split: %d chunks", x.Chunks())
	}
	for i := 0; i < x.Chunks(); i++ {
		e := x.Entry(i)
		if raw := binary.LittleEndian.Uint32(data[e.Offset+4:]); int(raw) > maxChunkRaw+64 {
			t.Fatalf("chunk %d raw payload %d bytes despite %d bound", i, raw, maxChunkRaw)
		}
	}
	_, back, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(refs) {
		t.Fatalf("read %d of %d refs", len(back), len(refs))
	}
	for i := range refs {
		if back[i] != refs[i] {
			t.Fatalf("ref %d: %+v != %+v", i, back[i], refs[i])
		}
	}
}

// Records whose busy count or reconstructed thread cannot fit an int32
// are rejected as corrupt rather than overflowing on 32-bit platforms.
func TestDecodeBoundsTightened(t *testing.T) {
	mkTrace := func(rec []byte) []byte {
		var buf bytes.Buffer
		wv, err := newWriterVersion(&buf, Header{Workload: "b", Cores: 2}, versionV1)
		if err != nil {
			t.Fatal(err)
		}
		// Hand-frame one chunk holding the crafted record.
		wv.raw = append(wv.raw[:0], rec...)
		wv.nref = 1
		wv.total = 1
		if err := wv.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// busy == 1<<32 was accepted by the old `busy > 1<<32` check and
	// overflows int(busy) on 32-bit platforms.
	rec := []byte{0}
	rec = appendUvarint(rec, 0)     // core
	rec = appendVarint(rec, 0)      // thread delta
	rec = appendVarint(rec, 0x1000) // addr delta
	rec = appendUvarint(rec, 1<<32) // busy
	if _, _, err := ReadAll(bytes.NewReader(mkTrace(rec))); err == nil {
		t.Fatal("busy 1<<32 accepted")
	}

	// A thread delta that lands the reconstructed thread outside int32.
	rec = []byte{0}
	rec = appendUvarint(rec, 1)
	rec = appendVarint(rec, 1<<40)
	rec = appendVarint(rec, 0)
	rec = appendUvarint(rec, 5)
	if _, _, err := ReadAll(bytes.NewReader(mkTrace(rec))); err == nil {
		t.Fatal("thread beyond int32 accepted")
	}

	// Negative threads are garbage too.
	rec = []byte{0}
	rec = appendUvarint(rec, 0)
	rec = appendVarint(rec, -3)
	rec = appendVarint(rec, 0)
	rec = appendUvarint(rec, 5)
	if _, _, err := ReadAll(bytes.NewReader(mkTrace(rec))); err == nil {
		t.Fatal("negative thread accepted")
	}

	// The same bounds hold at the maximum legal values.
	rec = []byte{0}
	rec = appendUvarint(rec, 0)
	rec = appendVarint(rec, 100)
	rec = appendVarint(rec, 0)
	rec = appendUvarint(rec, (1<<31)-1)
	if _, _, err := ReadAll(bytes.NewReader(mkTrace(rec))); err != nil {
		t.Fatalf("maximum legal record rejected: %v", err)
	}
}

// Sequential versus parallel decode of one multi-chunk trace — the
// wall-clock case for sharded replay.
func BenchmarkSequentialDecode(b *testing.B) {
	benchDecode(b, 1)
}

func BenchmarkParallelDecode4(b *testing.B) {
	benchDecode(b, 4)
}

func benchDecode(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(30))
	refs := randRefs(rng, 400_000, 8)
	data := writeTrace(nil, Header{Workload: "bench", Cores: 8}, refs, DefaultChunkRefs)
	x, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var src trace.RefSource
		var done func()
		if workers == 1 {
			c, err := x.Window(0, x.Refs())
			if err != nil {
				b.Fatal(err)
			}
			src, done = c, func() {}
		} else {
			p, err := x.Parallel(workers, 0, x.Refs())
			if err != nil {
				b.Fatal(err)
			}
			src, done = p, p.Close
		}
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		done()
		if n != len(refs) {
			b.Fatalf("decoded %d of %d", n, len(refs))
		}
	}
}
