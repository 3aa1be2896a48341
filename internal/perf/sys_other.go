//go:build !linux

package perf

// physMem reports 0, unknown, off Linux: TuneGC then sets no memory limit.
func physMem() uint64 { return 0 }

// PeakRSS reports 0, unknown, off Linux.
func PeakRSS() uint64 { return 0 }
