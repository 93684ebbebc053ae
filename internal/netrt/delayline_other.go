//go:build !linux

package netrt

import "time"

// lineClock is a runtime timer where there is no timerfd: the delay line is
// the same, only its wake-ups are as coarse as the platform's timers.
type lineClock struct {
	t    *time.Timer
	done chan struct{}
}

func newLineClock() (*lineClock, error) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &lineClock{t: t, done: make(chan struct{})}, nil
}

// arm sets one expiry d from now, replacing any earlier setting.
func (c *lineClock) arm(d time.Duration) { c.t.Reset(d) }

// wait blocks until an expiry and reports false once the clock is closed. A
// stale expiry may wake it early; the line re-checks every item's due.
func (c *lineClock) wait() bool {
	select {
	case <-c.t.C:
		return true
	case <-c.done:
		return false
	}
}

func (c *lineClock) close() {
	c.t.Stop()
	close(c.done)
}
