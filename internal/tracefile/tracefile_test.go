package tracefile

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

// randRefs builds a deterministic pseudo-random ref sequence shaped like
// real generator output: per-core locality with occasional far jumps,
// migrated threads, full kind/class coverage.
func randRefs(rng *rand.Rand, n, cores int) []trace.Ref {
	last := make([]uint64, cores)
	for c := range last {
		last[c] = uint64(0x1_0000_0000) + uint64(c)<<28
	}
	refs := make([]trace.Ref, n)
	for i := range refs {
		c := rng.Intn(cores)
		switch rng.Intn(4) {
		case 0:
			last[c] += 64
		case 1:
			last[c] -= 64 * uint64(rng.Intn(100))
		case 2:
			last[c] += 64 * uint64(rng.Intn(1<<20))
		default:
			last[c] = rng.Uint64() // anywhere in the address space
		}
		refs[i] = trace.Ref{
			Core:   c,
			Thread: (c + rng.Intn(cores)) % cores,
			Kind:   trace.Kind(rng.Intn(3)),
			Addr:   last[c],
			Class:  cache.Class(rng.Intn(4)),
			Busy:   rng.Intn(500),
		}
	}
	return refs
}

// writeTrace encodes refs in memory; t may be nil (fuzz seed building),
// in which case encoding errors panic.
func writeTrace(t testing.TB, hdr Header, refs []trace.Ref, chunkRefs int) []byte {
	fail := func(err error) {
		if t == nil {
			panic(err)
		}
		t.Fatal(err)
	}
	if t != nil {
		t.Helper()
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		fail(err)
	}
	w.ChunkRefs = chunkRefs
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			fail(err)
		}
	}
	if err := w.Close(); err != nil {
		fail(err)
	}
	return buf.Bytes()
}

// Round-trip property: any ref sequence written at any chunking reads
// back byte-identical, across many random shapes.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		cores := 1 + rng.Intn(16)
		n := rng.Intn(3000)
		chunk := 1 + rng.Intn(257)
		refs := randRefs(rng, n, cores)
		hdr := Header{
			Workload: "prop", Design: "R", Cores: cores,
			Seed: rng.Uint64(), Warm: rng.Intn(1000), Measure: n,
			OffChipMLP: 1 + rng.Float64()*4,
		}
		data := writeTrace(t, hdr, refs, chunk)

		got, back, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: ReadAll: %v", trial, err)
		}
		if got.Workload != hdr.Workload || got.Design != hdr.Design ||
			got.Cores != hdr.Cores || got.Seed != hdr.Seed ||
			got.Warm != hdr.Warm || got.Measure != hdr.Measure ||
			got.OffChipMLP != hdr.OffChipMLP {
			t.Fatalf("trial %d: header %+v round-tripped to %+v", trial, hdr, got)
		}
		if len(back) != len(refs) {
			t.Fatalf("trial %d: wrote %d refs, read %d", trial, len(refs), len(back))
		}
		for i := range refs {
			if back[i] != refs[i] {
				t.Fatalf("trial %d: ref %d: wrote %+v, read %+v", trial, i, refs[i], back[i])
			}
		}
	}
}

// Files patch their total-ref count on Close; reopening sees it without
// scanning, and a full scan agrees.
func TestFileCountPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	refs := randRefs(rng, 1234, 4)
	path := filepath.Join(t.TempDir(), "t.rnt")
	fw, err := Create(path, Header{Workload: "w", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	fw.ChunkRefs = 100
	for _, r := range refs {
		if err := fw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Refs != 1234 || len(back) != 1234 {
		t.Fatalf("declared %d refs, read %d", hdr.Refs, len(back))
	}
}

// A File rewinds to its first ref (the demux loops finite traces through
// this), and refuses to rewind after a read error.
func TestFileRewind(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	refs := randRefs(rng, 300, 2)
	path := filepath.Join(t.TempDir(), "t.rnt")
	fw, err := Create(path, Header{Workload: "w", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	fw.ChunkRefs = 64
	for _, r := range refs {
		fw.Write(r)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	drain := func() int {
		n := 0
		for {
			r, ok := f.Next()
			if !ok {
				break
			}
			if r != refs[n] {
				t.Fatalf("pass ref %d: %+v != %+v", n, r, refs[n])
			}
			n++
		}
		return n
	}
	if n := drain(); n != len(refs) {
		t.Fatalf("first pass read %d of %d", n, len(refs))
	}
	if err := f.Rewind(); err != nil {
		t.Fatalf("rewind: %v", err)
	}
	if n := drain(); n != len(refs) {
		t.Fatalf("second pass read %d of %d", n, len(refs))
	}

	// Truncated file: the reader errors, and Rewind refuses to recycle.
	whole, _ := os.ReadFile(path)
	trunc := filepath.Join(t.TempDir(), "trunc.rnt")
	if err := os.WriteFile(trunc, whole[:len(whole)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	tf, err := Open(trunc)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	for {
		if _, ok := tf.Next(); !ok {
			break
		}
	}
	if tf.Err() == nil {
		t.Fatal("truncated file drained cleanly")
	}
	if err := tf.Rewind(); err == nil {
		t.Fatal("rewind after read error succeeded")
	}
}

// RecordStreams tees per-core streams to a writer without altering what
// flows through them, recording refs in consumption order.
func TestRecordStreamsTee(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	refs := randRefs(rng, 500, 3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Workload: "w", Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	w.ChunkRefs = 64
	streams := trace.Demux(trace.NewSliceSource(refs), 3)
	teed := RecordStreams(w, streams)
	// Consume in trace order, so the recording must equal refs.
	for i, want := range refs {
		if r := teed[want.Core].Next(); r != want {
			t.Fatalf("ref %d altered in flight: %+v != %+v", i, r, want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(refs) {
		t.Fatalf("recorded %d of %d refs", len(back), len(refs))
	}
	for i := range refs {
		if back[i] != refs[i] {
			t.Fatalf("recorded ref %d: %+v != %+v", i, back[i], refs[i])
		}
	}
}

// Truncating a valid trace anywhere after the preamble must surface an
// error (never a silent short read), and never panic.
func TestTruncationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := randRefs(rng, 400, 2)
	data := writeTrace(t, Header{Workload: "w", Cores: 2}, refs, 50)
	for cut := len(data) - 1; cut > 14; cut -= 97 {
		_, _, err := ReadAll(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes went undetected", cut, len(data))
		}
	}
}

// Corrupting the magic, version, or terminator count is rejected.
func TestCorruptPreamble(t *testing.T) {
	data := writeTrace(t, Header{Workload: "w", Cores: 1},
		randRefs(rand.New(rand.NewSource(3)), 10, 1), 4)

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[4] = 99
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("future version accepted")
	}

	// Terminator count is the last 4 bytes of the file.
	bad = append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt terminator count accepted")
	}

	// Header count disagreeing with the stream is rejected.
	bad = append([]byte(nil), data...)
	bad[countOffset] = 5
	if _, _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong header count accepted")
	}
}

// An empty trace (header + terminator only) round-trips.
func TestEmptyTrace(t *testing.T) {
	data := writeTrace(t, Header{Workload: "empty", Cores: 8}, nil, 16)
	hdr, refs, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 || hdr.Workload != "empty" {
		t.Fatalf("hdr %+v, %d refs", hdr, len(refs))
	}
}

// Refs whose core is outside the header's range are rejected at write
// time, keeping traces internally consistent.
func TestWriterRejectsBadCore(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{}, Header{Workload: "w", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(trace.Ref{Core: 2}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
}

// The streaming reader does not allocate per ref once warmed up.
func TestReaderSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	refs := randRefs(rng, 20_000, 8)
	data := writeTrace(t, Header{Workload: "w", Cores: 8}, refs, DefaultChunkRefs)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: first chunk allocates the reusable buffers.
	for i := 0; i < 100; i++ {
		r.Next()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := r.Next(); !ok && r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
	// Chunk boundaries may reset gzip state; allow a small amortized
	// budget but fail if every ref allocates.
	if allocs > 0.5 {
		t.Fatalf("%.2f allocs per Next", allocs)
	}
}
