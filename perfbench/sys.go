package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// usage is the process's CPU time and context switches (getrusage).
type usage struct {
	cpu   time.Duration
	ctxsw int64
}

func getUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxsw: ru.Nvcsw + ru.Nivcsw,
	}
}

func (u usage) sub(v usage) usage { return usage{cpu: u.cpu - v.cpu, ctxsw: u.ctxsw - v.ctxsw} }

// rt is a runtime/metrics sample of the counters the traced run reports.
type rt struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRT() rt {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := rt{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[3].Value.Float64Histogram()
	}
	return out
}

// schedP99 returns the p99 scheduling latency (seconds) of the goroutines
// that became runnable between a and b.
func schedP99(a, b rt) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	var total uint64
	diff := make([]uint64, len(b.sched.Counts))
	for i := range diff {
		diff[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range diff {
		cum += c
		if cum >= rank {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

func goroutines() uint64 {
	s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the q-quantile of sorted values (nearest rank), or 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
	}
}
