package core

import (
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// decodeFuzzElements decodes up to 8 elements from the raw bytes,
// 5 bytes each: priority, period (1–64), length, mode, via-target.
// Shared by FuzzDiagram, FuzzDiagramDifferential and FuzzCalUEarlyExit
// so all three explore the same input space (and share a corpus
// shape).
func decodeFuzzElements(raw []byte) []Element {
	var elems []Element
	for i := 0; i+5 <= len(raw) && len(elems) < 8; i += 5 {
		e := Element{
			ID:       stream.ID(len(elems)),
			Priority: int(raw[i]),
			Period:   1 + int(raw[i+1])%64,
			Length:   1 + int(raw[i+2])%20,
		}
		if raw[i+3]%2 == 1 {
			e.Mode = Indirect
			e.Via = []stream.ID{stream.ID(int(raw[i+4]) % 9)}
		}
		elems = append(elems, e)
	}
	return elems
}

// FuzzDiagram: arbitrary (decoded) element lists must never panic the
// diagram construction or Modify, and the bound must respect its basic
// invariants (>= required accumulation position, -1 or within horizon).
func FuzzDiagram(f *testing.F) {
	f.Add([]byte{3, 10, 2, 0, 0, 2, 15, 3, 1, 3, 1, 13, 4, 0, 0}, 30, 6)
	f.Add([]byte{1, 4, 4, 0, 0}, 12, 3)
	f.Add([]byte{}, 10, 1)
	f.Fuzz(func(t *testing.T, raw []byte, horizonRaw, reqRaw int) {
		horizon := 1 + abs(horizonRaw)%300
		required := 1 + abs(reqRaw)%64
		elems := decodeFuzzElements(raw)
		d, err := NewDiagram(elems, horizon)
		if err != nil {
			t.Fatalf("valid elements rejected: %v", err)
		}
		d.Modify()
		u := d.DelayUpperBound(required)
		if u == 0 && required > 0 {
			t.Fatalf("U = 0 with required %d", required)
		}
		if u > horizon {
			t.Fatalf("U = %d beyond horizon %d", u, horizon)
		}
		if u >= 0 && u < required {
			t.Fatalf("U = %d below required %d free slots", u, required)
		}
		// Modify must be monotone: free slots never decrease.
		fresh, _ := NewDiagram(elems, horizon)
		if d.FreeSlots(horizon) < fresh.FreeSlots(horizon) {
			t.Fatal("Modify reduced free slots")
		}
	})
}

// FuzzDiagramDifferential cross-checks the optimized bitset engine
// against the dense reference (dense.go) on fuzzer-decoded element
// sets: every row, the result row, the delay upper bound and the
// free-slot counts must be byte-identical, initially and after Modify.
// TestDifferentialThousandSets runs the same comparison on a large
// seeded-random battery; the fuzzer explores the corners the RNG
// misses (degenerate periods, self-referential vias, tiny horizons).
func FuzzDiagramDifferential(f *testing.F) {
	f.Add([]byte{3, 10, 2, 0, 0, 2, 15, 3, 1, 3, 1, 13, 4, 0, 0}, 30)
	f.Add([]byte{2, 12, 4, 1, 1, 1, 13, 5, 1, 2, 1, 13, 1, 0, 0}, 120)
	f.Add([]byte{1, 0, 0, 1, 0}, 64) // via pointing at itself after mod
	f.Add([]byte{}, 10)
	f.Fuzz(func(t *testing.T, raw []byte, horizonRaw int) {
		horizon := 1 + abs(horizonRaw)%300
		elems := decodeFuzzElements(raw)
		var ar Arena
		opt, ref := buildBoth(t, &ar, elems, horizon)
		assertDiagramsEqual(t, opt, ref, elems, "fuzz initial")
		opt.Modify()
		ref.Modify()
		assertDiagramsEqual(t, opt, ref, elems, "fuzz modified")
	})
}

// decodeWideElements decodes up to 16 elements from the raw bytes,
// 7 bytes each: priority, period (two bytes, 1–1024), length (1–40),
// mode and two via targets. An odd mode byte makes the element
// indirect through the first target, and also through the second when
// its bit 1 is set. decodeFuzzElements' periods of at most 64 keep
// every window within two words; these span many.
func decodeWideElements(raw []byte) []Element {
	var elems []Element
	for i := 0; i+7 <= len(raw) && len(elems) < 16; i += 7 {
		e := Element{
			ID:       stream.ID(len(elems)),
			Priority: int(raw[i]),
			Period:   1 + (int(raw[i+1])<<8|int(raw[i+2]))%1024,
			Length:   1 + int(raw[i+3])%40,
		}
		if m := raw[i+4]; m&1 == 1 {
			e.Mode = Indirect
			e.Via = []stream.ID{stream.ID(int(raw[i+5]) % 17)}
			if m&2 != 0 {
				e.Via = append(e.Via, stream.ID(int(raw[i+6])%17))
			}
		}
		elems = append(elems, e)
	}
	return elems
}

// FuzzModifyWideWindows cross-checks Modify's incremental re-layout
// against the dense reference on fuzzer-decoded sets with wide windows
// at horizons up to 4,096: every observable, initially and after one
// and two Modify calls. The seeds are the two traps an incremental
// re-layout can fall into (docs/PERFORMANCE.md, "Modify re-lays only
// what changed"). Trap 1, at horizons 21 and 29: the window the
// horizon truncates must be re-scanned even when nothing above it
// changed, or the lowest row keeps requesting past its clamped demand.
// Trap 2, at horizon 34: mid-re-layout a row above newly claims slots
// a row below still holds, so the occupancy above a row must not be
// read off an occupancy column updated row by row, less that row's own
// old claims and the rows below.
func FuzzModifyWideWindows(f *testing.F) {
	trap1 := []byte{
		5, 0, 20, 3, 0, 0, 0, // 0: P5 T21 C4 direct
		4, 0, 22, 2, 1, 3, 0, // 1: P4 T23 C3 via 3
		3, 0, 20, 0, 1, 4, 0, // 2: P3 T21 C1 via 4
		2, 0, 4, 0, 1, 4, 0, // 3: P2 T5 C1 via 4
		1, 0, 7, 4, 0, 0, 0, // 4: P1 T8 C5 direct
	}
	trap2 := []byte{
		5, 0, 23, 6, 3, 2, 1, // 0: P5 T24 C7 via 2, 1
		4, 0, 12, 1, 0, 0, 0, // 1: P4 T13 C2 direct
		3, 0, 6, 4, 1, 3, 0, // 2: P3 T7 C5 via 3
		2, 0, 18, 0, 0, 0, 0, // 3: P2 T19 C1 direct
		1, 0, 16, 6, 0, 0, 0, // 4: P1 T17 C7 direct
	}
	f.Add(trap1, 20)
	f.Add(trap1, 28)
	f.Add(trap2, 33)
	f.Fuzz(func(t *testing.T, raw []byte, horizonRaw int) {
		var ar Arena
		checkModifyDifferential(t, &ar, decodeWideElements(raw), 1+fuzzMod(horizonRaw, 4096), "fuzz")
	})
}

// FuzzCalUEarlyExit pins Cal_U's early exit to the full-horizon
// computation on fuzzer-decoded element sets: checkEarlyExit at a
// horizon h below a deadline D ≤ 3000. The seeds are the two cases
// that rule out a closed-form stability margin (earlyExitCaseA and
// earlyExitCaseB, renumbered 0–3 in the same row order).
func FuzzCalUEarlyExit(f *testing.F) {
	f.Add([]byte{2, 26, 11, 1, 3, 1, 7, 1, 0, 0, 3, 41, 5, 1, 3, 2, 13, 4, 1, 1}, 2, 341, 511)
	f.Add([]byte{3, 37, 12, 1, 3, 4, 38, 7, 1, 3, 4, 24, 7, 0, 0, 3, 11, 3, 0, 0}, 11, 827, 1052)
	f.Add([]byte{3, 10, 2, 0, 0, 2, 15, 3, 1, 3, 1, 13, 4, 0, 0}, 5, 40, 900)
	f.Fuzz(func(t *testing.T, raw []byte, reqRaw, hRaw, dRaw int) {
		deadline := 2 + fuzzMod(dRaw, 2999)
		h := 1 + fuzzMod(hRaw, deadline-1)
		checkEarlyExit(t, decodeFuzzElements(raw), 1+fuzzMod(reqRaw, 128), h, deadline)
	})
}

// fuzzMod maps a fuzzer int onto [0, n), negative values included.
func fuzzMod(v, n int) int {
	if v %= n; v < 0 {
		v += n
	}
	return v
}

// TestQuickModifyIdempotence pins down in what sense Modify is
// idempotent. It is NOT a fixpoint in general: a second application
// can release more capacity (a via element whose own slots were
// released in the first pass no longer requests them — empirically a
// second pass changes ~44% of random indirect sets; see
// TestQuickModifyMonotone for the monotonicity that replaces literal
// idempotence). Two restricted forms do hold, and both engines must
// agree on them:
//
//  1. For sets without indirect elements Modify is literally
//     idempotent — it is a no-op, cell for cell.
//  2. Repeated application is deterministic and engine-independent:
//     k applications on the optimized engine equal k applications on
//     the dense reference for every k (k = 3 checked here on top of
//     the k ∈ {0,1,2} of the differential battery).
func TestQuickModifyIdempotence(t *testing.T) {
	f := func(re randElements) bool {
		elems := []Element(re)

		// Form 1: direct-only projection, Modify twice is cell-for-cell
		// identical to not calling it at all.
		direct := make([]Element, len(elems))
		copy(direct, elems)
		for i := range direct {
			direct[i].Mode = Direct
			direct[i].Via = nil
		}
		pristine, err := NewDiagram(direct, 150)
		if err != nil {
			return false
		}
		touched, err := NewDiagram(direct, 150)
		if err != nil {
			return false
		}
		touched.Modify()
		touched.Modify()
		for _, e := range direct {
			a, _ := pristine.Row(e.ID)
			b, _ := touched.Row(e.ID)
			for c := range a {
				if a[c] != b[c] {
					return false
				}
			}
		}

		// Form 2: triple application agrees across engines.
		opt, err := NewDiagram(elems, 150)
		if err != nil {
			return false
		}
		ref, err := newDenseDiagram(elems, 150)
		if err != nil {
			return false
		}
		for k := 0; k < 3; k++ {
			opt.Modify()
			ref.Modify()
		}
		a, b := opt.ResultRow(), ref.ResultRow()
		for c := range a {
			if a[c] != b[c] {
				return false
			}
		}
		for _, e := range elems {
			ra, _ := opt.Row(e.ID)
			rb, _ := ref.Row(e.ID)
			for c := range ra {
				if ra[c] != rb[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
