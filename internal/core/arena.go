package core

import "sync"

// Arena is a grow-only scratch allocator for one Cal_U call: the
// diagram rows it lays out (the HP elements), and the timing-diagram
// engine's internal buffers (bitset words, demand windows, row
// headers, Modify's re-layout scratch). Every Cal_U method of Analyzer
// borrows one from a process-wide free list for the length of the call
// and returns it reset, so a process that analyses thousands of
// streams allocates roughly once per concurrent caller.
//
// Outside tests, only calc.go builds arena-backed diagrams, and its
// methods return an int, so no arena-backed slice outlives the call
// that borrowed the arena. Keep it that way: a diagram that escaped
// would be re-carved under its holder by the next borrower.
//
// Carving hands out zeroed, capacity-clipped sub-slices. When a pool's
// backing array runs out, a larger one replaces it; slices carved
// earlier keep pointing into the old array and stay valid, so a grab
// never invalidates previous grabs (Grow relies on this when it
// regrows a diagram's bitsets mid-construction).
//
// A nil *Arena is valid everywhere and falls back to plain heap
// allocation; an Arena must not be shared between goroutines.
type Arena struct {
	words arenaPool[uint64]
	ints  arenaPool[int]
	sets  arenaPool[bitset]
	rows  arenaPool[[]int]
	ids   arenaPool[int32]
	elems arenaPool[Element]
}

// arenas is the free list of idle arenas, the most recently returned
// last. It never holds more arenas than Cal_U calls have run at once,
// and it keeps each one, at the size of the largest call it served,
// for the life of the process. A sync.Pool would give idle arenas back
// to the collector, but it drops them at garbage collection and keeps
// one per P that other Ps cannot take, and every miss grows a new
// arena from nothing: docs/PERFORMANCE.md ("Cal_U borrows its scratch
// per call") has the measurements.
var arenas struct {
	sync.Mutex
	idle []*Arena
}

// borrowArena takes an arena off the free list, or makes a new one.
func borrowArena() *Arena {
	arenas.Lock()
	defer arenas.Unlock()
	k := len(arenas.idle) - 1
	if k < 0 {
		return new(Arena)
	}
	a := arenas.idle[k]
	arenas.idle[k] = nil
	arenas.idle = arenas.idle[:k]
	return a
}

// returnArena resets a and puts it on the free list; the caller must
// have dropped every slice carved from it.
func returnArena(a *Arena) {
	a.Reset()
	arenas.Lock()
	arenas.idle = append(arenas.idle, a)
	arenas.Unlock()
}

// Reset recycles all storage: every slice carved before the call is
// up for reuse, so the caller must have dropped them. The row headers
// and the element rows are cleared, so an idle arena pins neither
// backing arrays it has replaced nor an HP set's Via lists.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	clear(a.sets.buf[:a.sets.off])
	clear(a.rows.buf[:a.rows.off])
	clear(a.elems.buf[:a.elems.off])
	a.words.reset()
	a.ints.reset()
	a.sets.reset()
	a.rows.reset()
	a.ids.reset()
	a.elems.reset()
}

type arenaPool[T any] struct {
	buf  []T
	off  int
	used int // carved since the last reset, across every buffer
}

// reset makes buf available again. A pool that outgrew buf since the
// last reset gets one buffer holding all of it, so the next call of
// the same size carves without growing.
func (p *arenaPool[T]) reset() {
	if p.used > len(p.buf) {
		p.buf = make([]T, p.used)
	}
	p.off, p.used = 0, 0
}

// grab carves a zeroed slice of length n (len == cap, so appends by
// the caller cannot bleed into the next carve).
func grab[T any](p *arenaPool[T], n int) []T {
	if n == 0 {
		return nil
	}
	if p.off+n > len(p.buf) {
		c := 2 * cap(p.buf)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		p.buf = make([]T, c)
		p.off = 0
	}
	s := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	p.used += n
	clear(s)
	return s
}

func (a *Arena) grabWords(n int) bitset {
	if a == nil {
		return make(bitset, n)
	}
	return grab(&a.words, n)
}

func (a *Arena) grabInts(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return grab(&a.ints, n)
}

func (a *Arena) grabSets(n int) []bitset {
	if a == nil {
		return make([]bitset, n)
	}
	return grab(&a.sets, n)
}

func (a *Arena) grabRows(n int) [][]int {
	if a == nil {
		return make([][]int, n)
	}
	return grab(&a.rows, n)
}

func (a *Arena) grabIDs(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return grab(&a.ids, n)
}

func (a *Arena) grabElements(n int) []Element {
	if a == nil {
		return make([]Element, n)
	}
	return grab(&a.elems, n)
}

// regrowWords returns a bitset of length n carrying old's contents in
// its prefix, zeros beyond. old is returned unchanged when already big
// enough.
func (a *Arena) regrowWords(old bitset, n int) bitset {
	if len(old) >= n {
		return old[:n]
	}
	nw := a.grabWords(n)
	copy(nw, old)
	return nw
}

// regrowInts is regrowWords for demand-window slices.
func (a *Arena) regrowInts(old []int, n int) []int {
	if len(old) >= n {
		return old[:n]
	}
	ni := a.grabInts(n)
	copy(ni, old)
	return ni
}
