package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// Linux lets a process reset its resident-set high-water mark (writing 5
// to /proc/self/clear_refs) and read it back (VmHWM in /proc/self/status),
// which is how the benchmark takes the peak RSS of a single job.

// resetPeakRSS starts a new peak-RSS window.
func resetPeakRSS() {
	// Without the reset (not Linux, or an old kernel) the reading below is
	// the peak since process start: still a peak, only a longer window.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set of the current window.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
