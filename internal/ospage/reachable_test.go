package ospage_test

import (
	"fmt"
	"testing"
	"time"

	"rnuca/internal/cache"
	"rnuca/internal/ingest"
	"rnuca/internal/ospage"
	"rnuca/internal/trace"
)

// The search covers one page under a 3-core, 3-thread machine.
const (
	searchCores   = 3
	searchThreads = 3
	searchTLB     = 4
	searchPage    = 8192
	searchAddr    = 5*searchPage + 64
)

// who relates an access to the owner of a private page.
type who uint8

const (
	nobody      who = iota // the page has no owner: untouched, instruction or shared
	ownerCore              // the owner's core
	ownerThread            // the owner's thread, on another core
	stranger               // another thread on another core
)

type ruleKey struct {
	from cache.Class
	kind trace.Kind
	who  who
}

type ruleTo struct {
	to      cache.Class
	reclass ospage.ReclassKind
}

// section43 is the paper's §4.3 classification, transcribed row by row
// as the oracle the search checks every page walk against.
var section43 = map[ruleKey]ruleTo{
	// First touch traps to the OS.
	{cache.ClassUnknown, trace.IFetch, nobody}: {cache.ClassInstruction, ospage.ReclassNone},
	{cache.ClassUnknown, trace.Load, nobody}:   {cache.ClassPrivate, ospage.ReclassNone},
	{cache.ClassUnknown, trace.Store, nobody}:  {cache.ClassPrivate, ospage.ReclassNone},
	// A fetch from a private page makes it instruction, whoever fetches.
	{cache.ClassPrivate, trace.IFetch, ownerCore}:   {cache.ClassInstruction, ospage.ReclassPrivateToInstr},
	{cache.ClassPrivate, trace.IFetch, ownerThread}: {cache.ClassInstruction, ospage.ReclassPrivateToInstr},
	{cache.ClassPrivate, trace.IFetch, stranger}:    {cache.ClassInstruction, ospage.ReclassPrivateToInstr},
	// Data accesses: the owner's core keeps it, the owner's thread on
	// another core migrates it, anyone else shares it.
	{cache.ClassPrivate, trace.Load, ownerCore}:    {cache.ClassPrivate, ospage.ReclassNone},
	{cache.ClassPrivate, trace.Store, ownerCore}:   {cache.ClassPrivate, ospage.ReclassNone},
	{cache.ClassPrivate, trace.Load, ownerThread}:  {cache.ClassPrivate, ospage.ReclassMigration},
	{cache.ClassPrivate, trace.Store, ownerThread}: {cache.ClassPrivate, ospage.ReclassMigration},
	{cache.ClassPrivate, trace.Load, stranger}:     {cache.ClassShared, ospage.ReclassPrivateToShared},
	{cache.ClassPrivate, trace.Store, stranger}:    {cache.ClassShared, ospage.ReclassPrivateToShared},
	// Instruction pages replicate until a store de-replicates them.
	{cache.ClassInstruction, trace.IFetch, nobody}: {cache.ClassInstruction, ospage.ReclassNone},
	{cache.ClassInstruction, trace.Load, nobody}:   {cache.ClassInstruction, ospage.ReclassNone},
	{cache.ClassInstruction, trace.Store, nobody}:  {cache.ClassShared, ospage.ReclassInstrToShared},
	// Shared is terminal.
	{cache.ClassShared, trace.IFetch, nobody}: {cache.ClassShared, ospage.ReclassNone},
	{cache.ClassShared, trace.Load, nobody}:   {cache.ClassShared, ospage.ReclassNone},
	{cache.ClassShared, trace.Store, nobody}:  {cache.ClassShared, ospage.ReclassNone},
}

// input is one edge of the search: an access through Translate, or the
// eviction of the page's translation from one core's TLB.
type input struct {
	evict        bool
	kind         trace.Kind
	core, thread int
}

func (in input) String() string {
	if in.evict {
		return fmt.Sprintf("evict@%d", in.core)
	}
	return fmt.Sprintf("%v@%d/t%d", in.kind, in.core, in.thread)
}

// tlbLine is one core's translation for the page. A translation
// carries the class alone; the owner lives in the entry.
type tlbLine struct {
	held  bool
	class cache.Class
}

// pageState is everything the search tells apart: whether the page has
// an entry, the entry, and each core's TLB line for it.
type pageState struct {
	touched bool
	entry   ospage.Entry
	tlb     [searchCores]tlbLine
}

// world is the simulated OS layer plus the ingest classifier, fed the
// accesses that walked the page table.
type world struct {
	sys *ospage.System
	pt  *ingest.PageTable
	// ingested is the class ingest returned for the last walk.
	ingested cache.Class
}

func (w *world) page() ospage.PageID { return w.sys.Table.PageOf(searchAddr) }

func (w *world) state() pageState {
	var s pageState
	s.entry, s.touched = w.sys.Table.Lookup(w.page())
	for i, tlb := range w.sys.TLBs {
		if class, ok := tlb.Peek(w.page()); ok {
			s.tlb[i] = tlbLine{held: true, class: class}
		}
	}
	return s
}

// apply feeds one input, returning the Translate result of an access.
func (w *world) apply(in input) ospage.Result {
	if in.evict {
		w.sys.TLBs[in.core].Shootdown(w.page())
		return ospage.Result{}
	}
	res := w.sys.Translate(searchAddr, in.core, in.thread, in.kind == trace.Store, in.kind == trace.IFetch)
	if res.TLBMiss {
		w.ingested = w.pt.Observe(trace.Ref{Kind: in.kind, Addr: searchAddr, Core: in.core, Thread: in.thread})
	}
	return res
}

func replay(path []input) *world {
	w := &world{
		sys: ospage.NewSystem(searchPage, searchTLB, searchCores),
		pt:  ingest.NewPageTable(searchPage, 0),
	}
	for _, in := range path {
		w.apply(in)
	}
	return w
}

// oracle is the page walk the §4.3 table prescribes for an access to a
// page holding e.
func oracle(t *testing.T, e ospage.Entry, in input) (ospage.Entry, ospage.Outcome) {
	w := nobody
	if e.Class == cache.ClassPrivate {
		switch {
		case in.core == e.OwnerCID:
			w = ownerCore
		case in.thread == e.OwnerTID:
			w = ownerThread
		default:
			w = stranger
		}
	}
	r, ok := section43[ruleKey{e.Class, in.kind, w}]
	if !ok {
		t.Fatalf("no §4.3 rule for %v page, %v by %v", e.Class, in, w)
	}
	next := ospage.Entry{Class: r.to, OwnerCID: -1, OwnerTID: -1}
	out := ospage.Outcome{Class: r.to, Reclass: r.reclass}
	if r.to == cache.ClassPrivate {
		// The accessor owns the page; a page that was already private
		// keeps its owning thread.
		next.OwnerCID, next.OwnerTID = in.core, in.thread
		if e.Class == cache.ClassPrivate {
			next.OwnerTID = e.OwnerTID
		}
	}
	switch r.reclass {
	case ospage.ReclassNone:
	case ospage.ReclassInstrToShared:
		out.PrevOwner = -1
	default:
		out.PrevOwner = e.OwnerCID
	}
	return next, out
}

// counted is what the table's counters must read after a page walk.
func counted(c ospage.Transitions, first bool, k ospage.ReclassKind) ospage.Transitions {
	if first {
		c.FirstTouches++
	}
	switch k {
	case ospage.ReclassNone:
		return c
	case ospage.ReclassPrivateToShared:
		c.PrivateToShared++
	case ospage.ReclassMigration:
		c.Migrations++
	case ospage.ReclassInstrToShared:
		c.InstrToShared++
	case ospage.ReclassPrivateToInstr:
		c.PrivateToInstr++
	}
	c.TLBShootdowns++
	return c
}

// checkState asserts the invariants every reachable state holds.
func checkState(s pageState) error {
	e := s.entry
	switch {
	case !s.touched:
		if e != (ospage.Entry{}) {
			return fmt.Errorf("untouched page holds %+v", e)
		}
	case e.Class == cache.ClassPrivate:
		if e.OwnerCID < 0 || e.OwnerCID >= searchCores || e.OwnerTID < 0 || e.OwnerTID >= searchThreads {
			return fmt.Errorf("private page without one owner: %+v", e)
		}
	case e.Class == cache.ClassInstruction || e.Class == cache.ClassShared:
		if e.OwnerCID != -1 || e.OwnerTID != -1 {
			return fmt.Errorf("%v page with an owner: %+v", e.Class, e)
		}
	default:
		return fmt.Errorf("touched page without a class: %+v", e)
	}
	for core, l := range s.tlb {
		if l.held && (!s.touched || l.class != e.Class) {
			return fmt.Errorf("core %d's TLB holds %v, the table %+v (touched %v)", core, l.class, e, s.touched)
		}
	}
	return nil
}

// checkEdge asserts what one input may do to the page.
func checkEdge(t *testing.T, before pageState, in input, res ospage.Result, w *world, trans ospage.Transitions) error {
	after := w.state()
	if err := checkState(after); err != nil {
		return err
	}
	if before.entry.Class == cache.ClassShared && after.entry.Class != cache.ClassShared {
		return fmt.Errorf("shared page became %v", after.entry.Class)
	}
	if in.evict {
		want := before
		want.tlb[in.core] = tlbLine{}
		if after != want || w.sys.Table.Transitions() != trans {
			return fmt.Errorf("eviction changed more than core %d's TLB line: %+v", in.core, after)
		}
		return nil
	}
	line := before.tlb[in.core]
	if line.held && (in.kind != trace.Store || line.class != cache.ClassInstruction) {
		// A hit: the TLB's class steers placement, nothing transitions.
		want := ospage.Result{Outcome: ospage.Outcome{Class: line.class}}
		if res != want || after != before || w.sys.Table.Transitions() != trans {
			return fmt.Errorf("TLB hit %+v transitioned: got %+v, state %+v", line, res, after)
		}
		return nil
	}
	// A miss, or a store trapping through an instruction translation:
	// the page walk must follow §4.3.
	entry, out := oracle(t, before.entry, in)
	if !res.TLBMiss || res.Outcome != out {
		return fmt.Errorf("walk returned %+v, §4.3 says %+v", res, out)
	}
	if !after.touched || after.entry != entry {
		return fmt.Errorf("walk left %+v, §4.3 says %+v", after.entry, entry)
	}
	if got, want := w.sys.Table.Transitions(), counted(trans, !before.touched, out.Reclass); got != want {
		return fmt.Errorf("counters %+v, want %+v", got, want)
	}
	if out.Reclass == ospage.ReclassMigration && (in.thread != before.entry.OwnerTID || in.core == before.entry.OwnerCID) {
		return fmt.Errorf("migration by %v of a page owned by core %d thread %d", in, before.entry.OwnerCID, before.entry.OwnerTID)
	}
	for core, l := range after.tlb {
		switch {
		case core == in.core:
			if !l.held || l.class != out.Class {
				return fmt.Errorf("accessing core's TLB holds %+v after the walk", l)
			}
		case out.Reclass != ospage.ReclassNone && l.held:
			return fmt.Errorf("core %d's TLB still holds the page after %v", core, out.Reclass)
		}
	}
	// The ingest classifier, fed the same walks, must agree.
	if w.ingested != out.Class {
		return fmt.Errorf("ingest classified %v, the walk %v", w.ingested, out.Class)
	}
	pe, ok := w.pt.Lookup(w.page())
	if !ok || pe != after.entry {
		return fmt.Errorf("ingest holds %+v (%v), the OS %+v", pe, ok, after.entry)
	}
	if got := w.pt.Stats().Transitions; got != w.sys.Table.Transitions() {
		return fmt.Errorf("ingest counted %+v, the OS %+v", got, w.sys.Table.Transitions())
	}
	return nil
}

func seen(paths map[pageState][]input, s pageState) bool {
	_, ok := paths[s]
	return ok
}

// TestReachablePageStates searches every state one page can reach under
// a 3-core, 3-thread System: from each state it applies every (core,
// thread, fetch/load/store) access through Translate and every core's
// TLB eviction, checking each edge against the §4.3 oracle and the
// invariants the paper's protocol keeps.
func TestReachablePageStates(t *testing.T) {
	var inputs []input
	for core := 0; core < searchCores; core++ {
		for thread := 0; thread < searchThreads; thread++ {
			for _, kind := range []trace.Kind{trace.IFetch, trace.Load, trace.Store} {
				inputs = append(inputs, input{kind: kind, core: core, thread: thread})
			}
		}
		inputs = append(inputs, input{evict: true, core: core})
	}
	start := time.Now()
	paths := map[pageState][]input{replay(nil).state(): nil}
	queue := [][]input{nil}
	edges := 0
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, in := range inputs {
			w := replay(path)
			before, trans := w.state(), w.sys.Table.Transitions()
			res := w.apply(in)
			edges++
			if err := checkEdge(t, before, in, res, w, trans); err != nil {
				t.Fatalf("after %v, %v: %v", path, in, err)
			}
			if after := w.state(); !seen(paths, after) {
				next := append(append([]input(nil), path...), in)
				paths[after] = next
				queue = append(queue, next)
			}
		}
	}
	t.Logf("%d states, %d edges in %v", len(paths), edges, time.Since(start))
	// Untouched; private to each of 3×3 owners, with or without the
	// owner's translation; instruction and shared, each under every
	// subset of TLBs holding the page.
	if want := 1 + 9*2 + 2*(1<<searchCores); len(paths) != want {
		t.Errorf("reached %d states, want %d", len(paths), want)
	}
}
