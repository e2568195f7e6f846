package eventsim

import "testing"

// caStep advances a solo free-flowing message one cycle: a flit
// crosses link i when the message still has flits to send there, the
// next flit has already arrived, and a downstream buffer slot is free.
// All decisions read the start-of-cycle state, exactly like the
// kernel.
func caStep(cr []int, C, d int) {
	H := len(cr)
	prev := cr[0]
	for i := 0; i < H; i++ {
		cur := cr[i]
		ok := cur < C && (i == 0 || prev > cur) && (i == H-1 || cur-cr[i+1] < d)
		prev = cur
		if ok {
			cr[i]++
		}
	}
}

// TestFlightMathAgainstCA pins the closed forms jump mode flies on —
// the from-release trajectory stairCrossed, the unloaded latency
// freeLat and the per-link occupancy window it implies — against a
// brute-force solo simulation from the empty snapshot, over all small
// shapes and buffer depths.
func TestFlightMathAgainstCA(t *testing.T) {
	for d := 1; d <= 4; d++ {
		for H := 1; H <= 5; H++ {
			for C := 1; C <= 5; C++ {
				lat := freeLat(H, C, d)
				wl := lat - H + 1 // as newComp
				cr := make([]int, H)
				for a := 0; a <= lat+2; a++ {
					for j := 0; j < H; j++ {
						if got := stairCrossed(a, j, C, d, H); got != cr[j] {
							t.Fatalf("d=%d H=%d C=%d: stairCrossed(a=%d, j=%d) = %d, CA has %d",
								d, H, C, a, j, got, cr[j])
						}
					}
					if done := cr[H-1] == C; done != (a >= lat) {
						t.Fatalf("d=%d H=%d C=%d: at a=%d CA delivered=%v, freeLat=%d",
							d, H, C, a, done, lat)
					}
					before := append([]int(nil), cr...)
					caStep(cr, C, d)
					for j := 0; j < H; j++ {
						// The occupancy window of link j is [j, j+wl-1]
						// relative to release: no crossing outside it.
						if cr[j] != before[j] && (a < j || a > j+wl-1) {
							t.Fatalf("d=%d H=%d C=%d: link %d crossed during a=%d, outside window [%d,%d]",
								d, H, C, j, a, j, j+wl-1)
						}
					}
				}
			}
		}
	}
}
