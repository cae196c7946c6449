package live

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling goroutine's thread for d when d is under
// a millisecond and reports whether it did. The Linux netpoller waits in
// whole milliseconds (epoll_wait), so an idle process would round every
// sub-millisecond runtime timer up to 1 ms; nanosleep does not. An
// interrupted sleep returns early, which only costs the caller a rescan.
func preciseSleep(d time.Duration) bool {
	if d >= time.Millisecond {
		return false
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
	return true
}
