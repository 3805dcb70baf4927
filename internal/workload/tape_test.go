package workload

import (
	"sync"
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

// Every catalog spec's tape reads back exactly its generators' streams,
// across several chunks per core: MIX-migrating rotates threads within
// the window, MIX-hetero gives each thread its own footprint.
func TestTapeMatchesGenerator(t *testing.T) {
	const n = 20_000
	specs := append(append(Primary(), Extended()...), MIXHetero(), MIXMigrating())
	for _, spec := range specs {
		cursors := NewTape(spec).Streams()
		for c := 0; c < spec.Cores; c++ {
			g := NewGenerator(spec, c)
			for i := 0; i < n; i++ {
				want, got := g.Next(), cursors[c].Next()
				if got != want {
					t.Fatalf("%s core %d ref %d: tape %+v, generator %+v", spec.Name, c, i, got, want)
				}
			}
		}
	}
}

// Packing round-trips every field at its limit: thread 63, the highest
// private address of a 64-core spec, and busy at 3/2 of MaxBusyPerRef,
// the most a generator draws.
func TestTapePackLimits(t *testing.T) {
	top := uint64(privateBase) + (MaxTapeCores-1)*privateStep + privateStep - blockBytes
	refs := []trace.Ref{
		{Core: MaxTapeCores - 1, Thread: MaxTapeCores - 1, Kind: trace.Store, Addr: top,
			Class: cache.ClassShared, Busy: MaxBusyPerRef/2 + MaxBusyPerRef},
		{Core: 0, Thread: 0, Kind: trace.IFetch, Addr: instrBase, Class: cache.ClassInstruction},
		{Core: 5, Thread: 9, Kind: trace.Load, Addr: sharedROBase + 64*12345, Class: cache.ClassPrivate, Busy: 1},
	}
	for _, r := range refs {
		if got := unpack(pack(r), r.Core); got != r {
			t.Errorf("round trip of %+v gave %+v", r, got)
		}
	}

	// A 64-core spec at the busy cap validates and its tape matches its
	// generators; one core more is refused.
	spec := OLTPDB2()
	spec.Cores, spec.BusyPerRef = MaxTapeCores, MaxBusyPerRef
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cursors := NewTape(spec).Streams()
	for _, c := range []int{0, MaxTapeCores - 1} {
		g := NewGenerator(spec, c)
		for i := 0; i < 2*tapeChunkRefs; i++ {
			if want, got := g.Next(), cursors[c].Next(); got != want {
				t.Fatalf("core %d ref %d: tape %+v, generator %+v", c, i, got, want)
			}
		}
	}
	spec.Cores++
	defer func() {
		if recover() == nil {
			t.Fatalf("NewTape accepted %d cores", spec.Cores)
		}
	}()
	NewTape(spec)
}

// Several goroutines read one tape at different paces and in different
// core orders, and each sees every core's generator sequence. Run under
// -race: chunks are appended by whichever reader first passes the end.
func TestTapeConcurrentReaders(t *testing.T) {
	const n = 3*tapeChunkRefs + 100
	spec := MIXMigrating()
	want := make([][]trace.Ref, spec.Cores)
	for c := range want {
		g := NewGenerator(spec, c)
		want[c] = make([]trace.Ref, n)
		for i := range want[c] {
			want[c][i] = g.Next()
		}
	}
	tape := NewTape(spec)
	var wg sync.WaitGroup
	for r, step := range []int{1, 7, 500, tapeChunkRefs + 1} {
		wg.Add(1)
		go func(r, step int) {
			defer wg.Done()
			cursors := tape.Streams()
			read := make([]int, spec.Cores)
			for left := spec.Cores * n; left > 0; {
				for k := 0; k < spec.Cores; k++ {
					c := (k + 3*r) % spec.Cores
					if r%2 == 1 {
						c = spec.Cores - 1 - c
					}
					for s := 0; s < step && read[c] < n; s++ {
						if got := cursors[c].Next(); got != want[c][read[c]] {
							t.Errorf("reader %d core %d ref %d: %+v, want %+v", r, c, read[c], got, want[c][read[c]])
							return
						}
						read[c]++
						left--
					}
				}
			}
		}(r, step)
	}
	wg.Wait()
}
