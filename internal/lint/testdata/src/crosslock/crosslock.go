// Fixture for lockorder's interprocedural side: an ABBA inversion that
// is invisible to intraprocedural analysis — one direction of the order
// exists only through a two-deep call chain — plus consistent-order
// shapes through helpers that must stay silent.
package crosslock

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
	muC sync.Mutex
	muD sync.Mutex
)

var shared int

// lockB acquires muB directly; viaB reaches it one call deeper, so
// aThenB's acquisition of muB is visible only through the summary of
// the two-deep chain aThenB → viaB → lockB.
func lockB() {
	muB.Lock()
	shared++
	muB.Unlock()
}

func viaB() { lockB() }

func aThenB() {
	muA.Lock()
	viaB() // want `via call chain viaB → lockB`
	muA.Unlock()
}

// bThenA uses the opposite direct order; its own site is reported too,
// pointing back at aThenB's chained one.
func bThenA() {
	muB.Lock()
	muA.Lock() // want `lock order inversion: crosslock.muA acquired while crosslock.muB is held`
	shared++
	muA.Unlock()
	muB.Unlock()
}

// Consistent order through helpers: every path acquires muC before
// muD, directly or through lockD, so no pair inverts.
func lockD() {
	muD.Lock()
	shared++
	muD.Unlock()
}

func cThenD1() {
	muC.Lock()
	lockD()
	muC.Unlock()
}

func cThenD2() {
	muC.Lock()
	defer muC.Unlock()
	lockD()
}

// unlockHelper releases the caller's lock; afterD must not be treated
// as acquiring muC while muD is held (the helper released it).
func unlockHelper() {
	muD.Unlock()
}

func afterD() {
	muD.Lock()
	unlockHelper()
	muC.Lock()
	shared++
	muC.Unlock()
}
