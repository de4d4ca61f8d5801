package main

import (
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS, so peakRSSMB covers only what follows.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the resident-set high-water mark since the last reset
// (or since the process started, where the reset is not permitted).
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}
