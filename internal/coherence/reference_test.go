package coherence

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"rnuca/internal/cache"
)

// refDirectory is the map-based directory the table replaced: one
// heap-allocated Entry per tracked block and fresh Invalidated slices.
// It is the reference the table must match transaction for transaction.
type refDirectory struct {
	tiles   int
	entries map[cache.Addr]*Entry

	reads, writes, upgrades, invals, writebacks uint64
}

func newRefDirectory(n int) *refDirectory {
	return &refDirectory{tiles: n, entries: make(map[cache.Addr]*Entry)}
}

func (d *refDirectory) Lookup(addr cache.Addr) *Entry { return d.entries[addr] }

func (d *refDirectory) Entries() int { return len(d.entries) }

func (d *refDirectory) Read(addr cache.Addr, t int, dist Nearest) Action {
	d.reads++
	e := d.entries[addr]
	if e == nil {
		d.entries[addr] = &Entry{Owner: -1, Sharers: Bitset(0).Set(t)}
		return Action{Source: SourceMemory, Provider: -1}
	}
	if e.Owner == t || e.Sharers.Has(t) {
		return Action{Source: SourceNone, Provider: t}
	}
	if e.Owner >= 0 {
		provider := e.Owner
		e.Sharers = e.Sharers.Set(t)
		return Action{Source: SourceOwner, Provider: provider}
	}
	provider := refNearestOf(e.Sharers, dist)
	e.Sharers = e.Sharers.Set(t)
	return Action{Source: SourceSharer, Provider: provider}
}

func (d *refDirectory) Write(addr cache.Addr, t int, dist Nearest) Action {
	d.writes++
	e := d.entries[addr]
	if e == nil {
		d.entries[addr] = &Entry{Owner: t}
		return Action{Source: SourceMemory, Provider: -1}
	}
	act := Action{Source: SourceMemory, Provider: -1}
	if e.Owner == t && e.Sharers == 0 {
		return Action{Source: SourceNone, Provider: t}
	}
	switch {
	case e.Owner >= 0 && e.Owner != t:
		act.Source, act.Provider = SourceOwner, e.Owner
		act.Invalidated = append(act.Invalidated, e.Owner)
	case e.Owner == t:
		d.upgrades++
		act.Source, act.Provider = SourceNone, t
	case e.Sharers != 0:
		act.Source = SourceSharer
		act.Provider = refNearestOf(e.Sharers, dist)
	}
	for v := uint64(e.Sharers.Clear(t)); v != 0; v &= v - 1 {
		act.Invalidated = append(act.Invalidated, bits.TrailingZeros64(v))
	}
	d.invals += uint64(len(act.Invalidated))
	e.Owner = t
	e.Sharers = 0
	return act
}

func (d *refDirectory) Evict(addr cache.Addr, t int, dirty bool) Action {
	e := d.entries[addr]
	if e == nil {
		return Action{Source: SourceNone, Provider: -1}
	}
	act := Action{Source: SourceNone, Provider: -1}
	if e.Owner == t {
		e.Owner = -1
		if dirty {
			d.writebacks++
			act.Writeback = true
		}
	} else {
		e.Sharers = e.Sharers.Clear(t)
	}
	if e.Owner < 0 && e.Sharers == 0 {
		delete(d.entries, addr)
	}
	return act
}

func refNearestOf(b Bitset, dist Nearest) int {
	best, bestD := -1, 1<<30
	for _, t := range b.Tiles() {
		dd := 0
		if dist != nil {
			dd = dist(t)
		}
		if best < 0 || dd < bestD || (dd == bestD && t < best) {
			best, bestD = t, dd
		}
	}
	return best
}

func (d *refDirectory) Stats() DirStats {
	return DirStats{Reads: d.reads, Writes: d.writes, Upgrades: d.upgrades, Invalidations: d.invals, Writebacks: d.writebacks}
}

func (d *refDirectory) CheckInvariants() error {
	addrs := make([]cache.Addr, 0, len(d.entries))
	for addr := range d.entries {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		e := d.entries[addr]
		if e.Owner < -1 || e.Owner >= d.tiles {
			return fmt.Errorf("coherence: block %#x owner %d out of range", uint64(addr), e.Owner)
		}
		if e.Owner >= 0 && e.Sharers.Has(e.Owner) {
			return fmt.Errorf("coherence: block %#x owner %d also in sharer set", uint64(addr), e.Owner)
		}
		if e.Owner < 0 && e.Sharers == 0 {
			return fmt.Errorf("coherence: block %#x has empty entry", uint64(addr))
		}
		for _, s := range e.Sharers.Tiles() {
			if s >= d.tiles {
				return fmt.Errorf("coherence: block %#x sharer %d out of range", uint64(addr), s)
			}
		}
	}
	return nil
}

// checkTable verifies the table's own structure: every entry is
// reachable from its home without crossing an empty slot, the live count
// is right, and the load stays within 3/4.
func checkTable(t *testing.T, d *Directory) {
	t.Helper()
	used := 0
	for i := range d.slots {
		s := &d.slots[i]
		if !s.used {
			if *s != (slot{}) {
				t.Fatalf("unused slot %d holds %+v", i, *s)
			}
			continue
		}
		used++
		if pos, ok := d.find(s.addr); !ok || pos != uint64(i) {
			t.Fatalf("block %#x in slot %d is not reachable (find -> %d, %v)", uint64(s.addr), i, pos, ok)
		}
	}
	if used != d.live {
		t.Fatalf("table holds %d entries, live count %d", used, d.live)
	}
	if 4*d.live > 3*len(d.slots) {
		t.Fatalf("%d live entries in %d slots exceed the 3/4 load limit", d.live, len(d.slots))
	}
}

// dirOp is one decoded tape operation.
type dirOp struct {
	kind  byte // 0 read, 1 write, 2 evict of a holder, 3 evict of any tile
	tile  int
	addr  cache.Addr
	dirty bool
}

// runDirectoryTape drives the table and the reference with the same
// operations and compares every Action, the touched block's entry, the
// entry count, the counters and the invariant report after each one,
// then every tracked block's entry at the end.
func runDirectoryTape(t *testing.T, tiles int, ops []dirOp) *Directory {
	d, ref := NewDirectory(tiles), newRefDirectory(tiles)
	for i, op := range ops {
		tile := op.tile % tiles
		if op.kind == 2 {
			// Evict a real holder when there is one, so entries empty
			// out and leave holes inside probe runs.
			if e := ref.Lookup(op.addr); e != nil {
				if e.Owner >= 0 && (e.Sharers == 0 || op.dirty) {
					tile = e.Owner
				} else if e.Sharers != 0 {
					ts := e.Sharers.Tiles()
					tile = ts[op.tile%len(ts)]
				}
			}
		}
		// Distances from the requestor that tie often, so the tile-ID
		// tie-break is exercised.
		dist := func(s int) int { return (s*7 + tile) % 5 }
		var got, want Action
		switch op.kind {
		case 0:
			got, want = d.Read(op.addr, tile, dist), ref.Read(op.addr, tile, dist)
		case 1:
			got, want = d.Write(op.addr, tile, dist), ref.Write(op.addr, tile, dist)
		default:
			got, want = d.Evict(op.addr, tile, op.dirty), ref.Evict(op.addr, tile, op.dirty)
		}
		where := func() string {
			return fmt.Sprintf("op %d (kind %d, tile %d, block %#x)", i, op.kind, tile, uint64(op.addr))
		}
		if !sameAction(got, want) {
			t.Fatalf("%s: action %+v, reference %+v", where(), got, want)
		}
		compareEntry(t, where, d, ref, op.addr)
		if d.Entries() != ref.Entries() {
			t.Fatalf("%s: %d entries, reference %d", where(), d.Entries(), ref.Entries())
		}
		if d.Stats() != ref.Stats() {
			t.Fatalf("%s: stats %+v, reference %+v", where(), d.Stats(), ref.Stats())
		}
		if got, want := d.CheckInvariants(), ref.CheckInvariants(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: invariants %v, reference %v", where(), got, want)
		}
	}
	checkTable(t, d)
	for addr := range ref.entries {
		compareEntry(t, func() string { return "end of tape" }, d, ref, addr)
	}
	return d
}

func compareEntry(t *testing.T, where func() string, d *Directory, ref *refDirectory, addr cache.Addr) {
	t.Helper()
	e, ok := d.Lookup(addr)
	re := ref.Lookup(addr)
	if ok != (re != nil) || (ok && e != *re) {
		t.Fatalf("%s: block %#x entry %+v (%v), reference %+v", where(), uint64(addr), e, ok, re)
	}
}

// sameAction compares two actions field by field, Invalidated by
// contents and nil-ness.
func sameAction(a, b Action) bool {
	if a.Source != b.Source || a.Provider != b.Provider || a.Writeback != b.Writeback ||
		(a.Invalidated == nil) != (b.Invalidated == nil) || len(a.Invalidated) != len(b.Invalidated) {
		return false
	}
	for i := range a.Invalidated {
		if a.Invalidated[i] != b.Invalidated[i] {
			return false
		}
	}
	return true
}

// decodeTape turns bytes into operations, four bytes each: kind and
// dirty flag, tile, and a 16-bit block number reduced modulo blocks.
// Blocks sit at stride bytes apart.
func decodeTape(tape []byte, blocks, stride uint64) []dirOp {
	var ops []dirOp
	for ; len(tape) >= 4; tape = tape[4:] {
		n := uint64(tape[2]) | uint64(tape[3])<<8
		ops = append(ops, dirOp{
			kind:  tape[0] % 4,
			dirty: tape[0]&0x80 != 0,
			tile:  int(tape[1]),
			addr:  cache.Addr(n % blocks * stride),
		})
	}
	return ops
}

// The table makes every transaction's decision the map-based directory
// made, on tapes whose live entries grow the table from 64 slots to
// thousands and whose evictions delete from inside probe runs. Block
// sets range from 12 (long collision runs at the initial size) to tens
// of thousands, at block and page strides, over 1, 4, 16 and 64 tiles.
func TestDirectoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		tiles          int
		blocks, stride uint64
		ops            int
	}{
		{1, 12, 64, 20000}, {4, 40, 64, 20000}, {16, 300, 64, 8000}, {16, 3000, 64, 2000},
		{64, 2000, 4096, 2000}, {4, 60000, 64, 1500}, {64, 60000, 1 << 20, 1500},
	} {
		tape := make([]byte, 4*tc.ops)
		rng.Read(tape)
		ops := decodeTape(tape, tc.blocks, tc.stride)
		// Lean the mix toward reads so entries accumulate sharers
		// and the table keeps growing under the evictions.
		for i := range ops {
			if ops[i].kind == 3 && i%2 == 0 {
				ops[i].kind = 0
			}
		}
		d := runDirectoryTape(t, tc.tiles, ops)
		if tc.blocks >= 2000 && len(d.slots) < 16*initialSlots {
			t.Fatalf("%+v: table reached only %d slots", tc, len(d.slots))
		}
	}
}

// Blocks that share a home slot form one probe run; emptying entries in
// the middle of the run, and in a run that wraps past the table's end,
// must leave every later entry reachable.
func TestDirectoryCollidingBlocksStayReachable(t *testing.T) {
	d := NewDirectory(16)
	last := uint64(len(d.slots) - 1)
	var addrs []cache.Addr
	for a := cache.Addr(0); len(addrs) < 12; a += 64 {
		if h := d.home(a); h == last || h == 0 {
			addrs = append(addrs, a)
		}
	}
	var ops []dirOp
	for i, a := range addrs {
		ops = append(ops, dirOp{kind: 0, tile: i, addr: a}, dirOp{kind: 0, tile: i + 1, addr: a})
	}
	for _, i := range []int{0, 5, 11, 3} {
		ops = append(ops, dirOp{kind: 2, tile: 0, addr: addrs[i]}, dirOp{kind: 2, tile: 1, addr: addrs[i]})
	}
	runDirectoryTape(t, 16, ops)
}

func FuzzDirectoryMatchesReference(f *testing.F) {
	f.Add(uint8(15), uint16(40), false, []byte("0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Add(uint8(63), uint16(9000), true, []byte("\x00\x01\x02\x03\x80\x05\x06\x07\x81\x09\x0a\x0b\x02\x0d\x0e\x0f"))
	f.Fuzz(func(t *testing.T, tiles uint8, blocks uint16, pageStride bool, tape []byte) {
		// The reference's invariant check sorts every entry after every
		// operation, so an exec costs the square of the tape length;
		// 1024 operations still grow the table five times.
		if len(tape) > 4*1024 {
			tape = tape[:4*1024]
		}
		stride := uint64(64)
		if pageStride {
			stride = 8192
		}
		runDirectoryTape(t, int(tiles%64)+1, decodeTape(tape, uint64(blocks)+1, stride))
	})
}

// Every kind of corrupt entry, planted in both directories, draws the
// reference's report: the table's bit arithmetic for out-of-range
// sharers names the same tile as the reference's ascending walk.
func TestCheckInvariantsMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		tiles int
		e     Entry
	}{
		{4, Entry{Owner: 4}},
		{4, Entry{Owner: -2, Sharers: 1}},
		{4, Entry{Owner: 2, Sharers: Bitset(0).Set(2).Set(0)}},
		{4, Entry{Owner: -1}},
		{4, Entry{Owner: -1, Sharers: Bitset(0).Set(1).Set(9).Set(5)}},
		{16, Entry{Owner: 3, Sharers: Bitset(0).Set(63)}},
		{64, Entry{Owner: 63, Sharers: Bitset(0).Set(0).Set(62)}},
	} {
		d, ref := NewDirectory(tc.tiles), newRefDirectory(tc.tiles)
		d.Read(0x40, 0, nil)
		ref.Read(0x40, 0, nil)
		const addr = 0x1000
		pos, _ := d.find(addr)
		d.insert(pos, addr, tc.e.Owner, tc.e.Sharers)
		ref.entries[addr] = &Entry{Owner: tc.e.Owner, Sharers: tc.e.Sharers}
		if got, want := fmt.Sprint(d.CheckInvariants()), fmt.Sprint(ref.CheckInvariants()); got != want {
			t.Errorf("%d tiles, entry %+v: %s, reference %s", tc.tiles, tc.e, got, want)
		}
	}
}

// Memory, not probe speed, bounds the table: live entries run to tens
// of thousands in a private-L2 directory, so a slot stays at 24 bytes.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 24 {
		t.Fatalf("slot is %d bytes, want at most 24", n)
	}
}
