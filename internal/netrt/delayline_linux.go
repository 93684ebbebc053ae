package netrt

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// lineClock is a timerfd on CLOCK_MONOTONIC (Go's monotonic clock), opened
// non-blocking so that os.NewFile registers it with the netpoller: wait parks
// the goroutine until the fd turns readable, and an expiry wakes it as an fd
// event, not as a timeout the poller rounds up to a millisecond.
type lineClock struct {
	fd   uintptr
	f    *os.File
	spec struct{ interval, value syscall.Timespec } // struct itimerspec
	buf  [8]byte                                    // the expiry count read consumes
}

func newLineClock() (*lineClock, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &lineClock{fd: fd, f: os.NewFile(fd, "netrt-delay-line")}, nil
}

// arm sets one expiry d from now, replacing any earlier setting; d <= 0
// expires at once (a zero value would disarm instead).
func (c *lineClock) arm(d time.Duration) {
	if d <= 0 {
		d = 1
	}
	c.spec.value = syscall.NsecToTimespec(int64(d))
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.fd, 0, uintptr(unsafe.Pointer(&c.spec)), 0, 0, 0)
}

// wait blocks until an expiry and reports false once the clock is closed.
func (c *lineClock) wait() bool {
	_, err := c.f.Read(c.buf[:])
	return err == nil
}

func (c *lineClock) close() { c.f.Close() }
