package service

import (
	"errors"
	"slices"
	"sync"
)

// ErrQueueFull is returned by Push when the queue is at capacity; the HTTP
// layer maps it to 429 so submitters get backpressure instead of unbounded
// daemon memory growth.
var ErrQueueFull = errors.New("service: job queue full")

// ErrQueueClosed is returned by Push after Close.
var ErrQueueClosed = errors.New("service: job queue closed")

// jobQueue is a bounded FIFO of job IDs: jobs run in the order they were
// pushed. Pop blocks until an item is available or the queue is closed;
// Close wakes every blocked Pop and makes the queue drain-empty
// immediately (items still queued stay persisted in the job store and are
// re-enqueued on restart, so dropping them here is safe).
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ids    []string
	cap    int
	closed bool
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a job ID. recovered pushes (restart re-enqueue) bypass the
// capacity check: a job the daemon already accepted must not be rejected
// by its own restart.
func (q *jobQueue) Push(id string, recovered bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if !recovered && len(q.ids) >= q.cap {
		return ErrQueueFull
	}
	q.ids = append(q.ids, id)
	q.cond.Signal()
	return nil
}

// Pop blocks for the next job ID; ok=false means the queue was closed.
func (q *jobQueue) Pop() (id string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ids) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return "", false
	}
	id = q.ids[0]
	q.ids = q.ids[1:]
	return id, true
}

// Remove deletes a queued job (cancellation before it started).
func (q *jobQueue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(q.ids, id)
	if i < 0 {
		return false
	}
	q.ids = slices.Delete(q.ids, i, i+1)
	return true
}

func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ids)
}

// Close stops the queue: every blocked Pop returns ok=false, further
// pushes fail, and remaining items are abandoned to the durable store.
func (q *jobQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
