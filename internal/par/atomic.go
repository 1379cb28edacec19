package par

import "sync/atomic"

// AtomicMinInt32Retries lowers *addr to v if v is smaller, atomically, and
// returns the number of failed compare-and-swap attempts — the contention
// signal the obs layer's cas_retries counter aggregates. Callers batch the
// returned counts locally and flush once per chunk, so the uninstrumented
// cost is one register add.
//
// The final value of a cell hammered by concurrent calls is the minimum
// over all proposed values — min is commutative and associative, so the
// result is independent of the interleaving. This order-insensitivity is
// what makes the deterministic-reservation protocols in internal/coarsen
// schedule-independent: reservations race, but the winner does not depend
// on who raced first.
func AtomicMinInt32Retries(addr *int32, v int32) int64 {
	var retries int64
	for {
		cur := atomic.LoadInt32(addr)
		if cur <= v {
			return retries
		}
		if atomic.CompareAndSwapInt32(addr, cur, v) {
			return retries
		}
		retries++
	}
}
