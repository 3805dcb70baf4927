package rnuca

import (
	"context"
	"errors"
	"testing"

	"rnuca/internal/trace"
)

// A generated feed shares batch b's tape among its readers and drops it
// once the last one has opened it; every reader sees the same streams.
// With one reader it hands out generators and holds nothing.
func TestGeneratedFeedDropsTapeAfterLastReader(t *testing.T) {
	ctx := context.Background()
	g := &generated{w: MIX(), readers: 3, tapes: make(map[int]*batchTape)}
	var opened [][]trace.Stream
	for r := 0; r < g.readers; r++ {
		opened = append(opened, g.open(ctx, 1))
		want := 1
		if r == g.readers-1 {
			want = 0
		}
		if len(g.tapes) != want {
			t.Fatalf("after %d of %d opens the feed holds %d tapes, want %d", r+1, g.readers, len(g.tapes), want)
		}
	}
	direct := (&generated{w: MIX(), readers: 1}).open(ctx, 1)
	for c := range direct {
		for i := 0; i < 5000; i++ {
			want := direct[c].Next()
			for r, s := range opened {
				if got := s[c].Next(); got != want {
					t.Fatalf("reader %d core %d ref %d: %+v, want %+v", r, c, i, got, want)
				}
			}
		}
	}
}

// Neither a finished Compare nor one canceled mid-run leaves a tape
// held by its feed.
func TestCompareLeavesNoTapeHeld(t *testing.T) {
	j := Job{
		Input:   FromWorkload(MIX()),
		Designs: AllDesigns(),
		Options: RunOptions{Warm: 4_000, Measure: 12_000, Batches: 3},
	}
	run := func(ctx context.Context, j Job) (*generated, error) {
		in, opt, err := j.lower(ctx)
		if err != nil {
			t.Fatal(err)
		}
		designs := make([][]maker, len(j.Designs))
		for i, id := range j.Designs {
			designs[i] = j.makers(id, opt.RunOptions)
		}
		_, err = runDesigns(in, opt, designs)
		return in.gen, err
	}
	gen, err := run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if gen.readers != 10 || len(gen.tapes) != 0 {
		t.Fatalf("finished Compare: %d readers per batch, %d tapes held", gen.readers, len(gen.tapes))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.Options.Progress = func(done, total int) { cancel() }
	gen, err = run(ctx, j)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Compare err = %v", err)
	}
	if len(gen.tapes) != 0 {
		t.Fatalf("canceled Compare: %d tapes held", len(gen.tapes))
	}
}
