// Package nondeterm is a fixture for the nondeterm analyzer; the pkgpath
// directive places it inside a library package.
package nondeterm

//pacor:pkgpath fixture/internal/sched

import (
	"math/rand"
	"time"
)

// globalRand draws from the process-global, nondeterministically seeded
// source.
func globalRand() int {
	return rand.Intn(10) // want `rand\.Intn draws from the process-global random source`
}

// seededRand builds an explicit source: the deterministic idiom, exempt.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// clockBranch lets wall-clock time steer control flow: under load the
// loop exits earlier and routing output changes run to run.
func clockBranch(deadline time.Duration, work func() bool) bool {
	start := time.Now()
	for work() {
		if time.Since(start) > deadline { // want `wall-clock time steers control flow`
			return false
		}
	}
	return true
}

// timedStage measures a stage without branching on the result: reporting
// durations is fine.
func timedStage(work func()) time.Duration {
	start := time.Now()
	work()
	return time.Since(start)
}

// taintedVar tracks the clock through an assignment chain into a loop
// condition.
func taintedVar(budget time.Duration, work func()) int {
	t0 := time.Now()
	work()
	elapsed := time.Since(t0)
	remaining := budget - elapsed
	n := 0
	for remaining > 0 { // want `wall-clock time steers control flow`
		n++
		remaining = 0
	}
	return n
}

// clearedTaint overwrites the clock-derived value before branching: the
// strong update clears the taint.
func clearedTaint() int {
	x := time.Now().Nanosecond()
	x = 42
	n := 0
	for i := 0; i < x; i++ {
		n++
	}
	return n
}

// suppressed opts out with a justification.
func suppressed() int {
	return rand.Intn(3) //pacor:allow nondeterm fixture demonstrates the justified opt-out
}
