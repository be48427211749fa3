package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cost is what one timed region cost the process.
type cost struct {
	Wall       time.Duration
	CPU        time.Duration // user + system, all threads
	AllocBytes uint64
	Mallocs    uint64
	GCs        uint32
}

func (c *cost) add(o cost) {
	c.Wall += o.Wall
	c.CPU += o.CPU
	c.AllocBytes += o.AllocBytes
	c.Mallocs += o.Mallocs
	c.GCs += o.GCs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs fn and returns what it cost. The counters are read
// outside the wall-clock interval, so reading them (ReadMemStats stops
// the world) is not part of the time reported.
func measure(fn func() error) (cost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&after)
	return cost{
		Wall:       wall,
		CPU:        cpu1 - cpu0,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		GCs:        after.NumGC - before.NumGC,
	}, err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MiB; 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
