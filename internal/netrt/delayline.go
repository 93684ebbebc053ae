package netrt

import (
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/rt"
)

// delayItem is one delayed send: payload for p, released at due on the
// node's clock (time since Start).
type delayItem struct {
	due     rt.Time
	p       *peer
	payload []byte
}

// delayLine holds a node's delayed sends (Config.Delay) until they are due
// and then hands them to their peers' queues. It is one goroutine over a
// min-heap of items, woken by a lineClock armed for the earliest due item:
// on Linux a timerfd in the netpoller, so a sub-millisecond wait is not
// rounded up to the poller's millisecond, as a runtime timer's is.
type delayLine struct {
	n     *Node
	clock *lineClock

	mu     sync.Mutex
	heap   []delayItem // min-heap on due
	armed  rt.Time     // the due the clock is armed for; 0 when it is not
	closed bool
}

// push holds payload for p until due. An item due before the one the clock
// is armed for re-arms it.
func (l *delayLine) push(due rt.Time, p *peer, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.heap = append(l.heap, delayItem{due, p, payload})
	l.up(len(l.heap) - 1)
	if l.armed == 0 || due < l.armed {
		l.arm(due)
	}
}

// arm sets the clock for due. Called with mu held, which is also what keeps
// it off a closed clock.
func (l *delayLine) arm(due rt.Time) {
	l.armed = due
	l.clock.arm(time.Duration(due - l.n.now()))
}

// run releases items as they fall due, in due order, until the line is
// closed; then it drops what is still pending.
func (l *delayLine) run() {
	defer l.n.wg.Done()
	var batch []delayItem
	for l.clock.wait() {
		batch = l.takeDue(batch)
		for _, it := range batch {
			l.n.offer(it.p, it.payload)
		}
		clear(batch)
		batch = batch[:0]
	}
	l.mu.Lock()
	l.heap = nil
	l.mu.Unlock()
}

// takeDue appends every item due by now to batch, in due order, and arms the
// clock for the next one. A wake with nothing due (a stale expiry) only
// re-arms.
func (l *delayLine) takeDue(batch []delayItem) []delayItem {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return batch
	}
	now := l.n.now()
	for len(l.heap) > 0 && l.heap[0].due <= now {
		batch = append(batch, l.heap[0])
		last := len(l.heap) - 1
		l.heap[0] = l.heap[last]
		l.heap[last] = delayItem{}
		l.heap = l.heap[:last]
		l.down(0)
	}
	l.armed = 0
	if len(l.heap) > 0 {
		l.arm(l.heap[0].due)
	}
	return batch
}

// close stops the clock, which ends run; items pushed later are dropped.
func (l *delayLine) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.clock.close()
}

func (l *delayLine) up(i int) {
	h := l.heap
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].due <= h[i].due {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (l *delayLine) down(i int) {
	h := l.heap
	for {
		least := i
		if c := 2*i + 1; c < len(h) && h[c].due < h[least].due {
			least = c
		}
		if c := 2*i + 2; c < len(h) && h[c].due < h[least].due {
			least = c
		}
		if least == i {
			return
		}
		h[least], h[i] = h[i], h[least]
		i = least
	}
}
