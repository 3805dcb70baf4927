package coherence

import (
	"strings"
	"testing"

	"rnuca/internal/cache"
)

// TestCheckInvariantsDeterministic is the regression for the
// map-order dependence rnuca-vet surfaced: with several violations
// present, CheckInvariants must report the one at the lowest address
// whatever the table's layout, not whichever entry a walk meets first.
// The violations are planted in every insertion order, in a table at
// its initial size and in one grown by many live entries.
func TestCheckInvariantsDeterministic(t *testing.T) {
	bad := []cache.Addr{0x3000, 0x1000, 0x2000}
	build := func(order []int, filler int) *Directory {
		d := NewDirectory(4)
		for i := 0; i < filler; i++ {
			d.Read(cache.Addr(0x100000+64*i), i%4, nil)
		}
		// Three empty entries — each a violation on its own.
		for _, k := range order {
			pos, _ := d.find(bad[k])
			d.insert(pos, bad[k], -1, 0)
		}
		return d
	}
	want := build([]int{0, 1, 2}, 0).CheckInvariants()
	if want == nil {
		t.Fatal("expected a violation")
	}
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		for _, filler := range []int{0, 1000} {
			got := build(order, filler).CheckInvariants()
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("order %v with %d other entries reported %v, want %v", order, filler, got, want)
			}
		}
	}
	const lowest = "block 0x1000"
	if got := want.Error(); !strings.Contains(got, lowest) {
		t.Fatalf("violation %q does not name the lowest address", got)
	}
}
