//go:build !linux

package live

import "time"

// preciseSleep reports false: outside Linux the clock always waits on a
// runtime timer (kqueue-based pollers already take nanosecond timeouts).
func preciseSleep(time.Duration) bool { return false }
