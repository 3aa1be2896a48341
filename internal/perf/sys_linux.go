package perf

import "syscall"

// physMem reports the machine's physical memory in bytes, 0 if unknown.
func physMem() uint64 {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return 0
	}
	return uint64(si.Totalram) * uint64(si.Unit)
}

// PeakRSS reports the process's peak resident set size in bytes so far,
// 0 if unknown.
func PeakRSS() uint64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // Linux reports KiB
}
