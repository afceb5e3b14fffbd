package rt

import "sync/atomic"

// waker is the per-worker park/unpark primitive that replaces the seed
// runtime's global cond.Broadcast thundering herd. Each worker parks on
// its own one-permit semaphore channel; a wake deposits a permit, and
// because the permit persists until consumed, a wake that races ahead
// of the park is never lost — no ticket or sequence protocol needed.
//
// Wakes are targeted: a task pinned to worker w's queue always wakes w
// (waking only someone else would let the signal be absorbed by a
// worker that need not pop the task, and the run would deadlock once
// everyone parks) and, when w is busy, one sleeper that may help it
// (wakePinned); a task poppable by anyone wakes one currently parked
// worker, found by scanning the parked flags. The flag/queue ordering makes
// the scan safe: a parker publishes parked[w]=true before its final
// queue re-check, and a waker publishes the task before scanning the
// flags, so (with sequentially consistent atomics) either the waker
// sees the parked flag or the parker's re-check sees the task.
type waker struct {
	sem    []chan struct{}
	parked []atomic.Bool
	// rotor spreads successive wake-anyone scans across workers so one
	// completion fanning out several shared tasks wakes several
	// distinct sleepers.
	rotor atomic.Uint32
}

func (k *waker) init(workers int) {
	k.sem = make([]chan struct{}, workers)
	k.parked = make([]atomic.Bool, workers)
	for w := range k.sem {
		k.sem[w] = make(chan struct{}, 1)
	}
}

// prepare publishes that w is about to park. The caller must re-check
// its queues (and the run's termination state) after this call and
// before calling park.
func (k *waker) prepare(w int) { k.parked[w].Store(true) }

// cancel withdraws a prepare without parking (work or termination was
// found on the re-check).
func (k *waker) cancel(w int) { k.parked[w].Store(false) }

// park blocks until a permit arrives (or consumes one already
// deposited). Stale permits from earlier races cause a harmless
// spurious wakeup: the worker just re-checks its queues and may park
// again.
func (k *waker) park(w int) {
	<-k.sem[w]
	k.parked[w].Store(false)
}

// permit deposits w's wake permit (idempotent while one is pending).
func (k *waker) permit(w int) {
	select {
	case k.sem[w] <- struct{}{}:
	default:
	}
}

// wakeOwner wakes the specific worker a pinned task belongs to and
// reports whether that worker was parked. Waking the depositor itself
// is skipped: it is awake by definition and will pop its own queue on
// its next dispatch iteration.
func (k *waker) wakeOwner(owner, self int) bool {
	if owner == self {
		return false
	}
	parked := k.parked[owner].Load()
	k.permit(owner)
	return parked
}

// wakePinned is the wake for a task published to owner's queue. The
// owner is always signalled: it is the one worker certain to pop the
// task, so liveness rests on that permit alone. An owner that was not
// parked is busy — its queue is a backlog building behind whatever it
// is running — so one parked worker is woken as well, to take the task
// through the policy's Help tier; without that wake a sleeper never
// learns a backlog exists. The helper wake is an optimisation layered
// on the same flag/queue ordering as wakeAny: the task is in the queue
// before the flags are scanned, so a worker between prepare and park
// either is seen here or sees the task on its re-check.
func (k *waker) wakePinned(owner, self int) {
	if !k.wakeOwner(owner, self) {
		k.wakeAny(self)
	}
}

// wakeAny wakes one parked worker (preferring one without a pending
// permit, so consecutive calls fan out), or nobody if none is parked —
// in which case every awake worker will find the shared task through
// its normal dispatch loop. It reports whether a permit was deposited;
// the runtime uses a false return (everyone busy) as the trigger for
// asking the executor's owner to lend an outside worker.
func (k *waker) wakeAny(self int) bool {
	n := len(k.sem)
	start := int(k.rotor.Add(1) % uint32(n))
	for i := 0; i < n; i++ {
		w := (start + i) % n
		if w == self || !k.parked[w].Load() {
			continue
		}
		if len(k.sem[w]) == 0 {
			k.permit(w)
			return true
		}
	}
	return false
}

// wakeAll deposits a permit for every worker (termination or failure).
func (k *waker) wakeAll() {
	for w := range k.sem {
		k.permit(w)
	}
}
