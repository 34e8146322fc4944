package main

import (
	"os"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time. Unlike wall
// time, it leaves out time the hypervisor stole from a virtual machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS tracking (VmHWM) at the
// current resident set. Without it (a kernel that refuses the write, or no
// /proc), peakRSSMB reports the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB returns the peak resident set in MiB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if m := vmHWM.FindSubmatch(status); m != nil {
			if kb, err := strconv.ParseFloat(string(m[1]), 64); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssMonitor samples the peak resident set of consecutive intervals, for
// workloads whose builds overlap and cannot be sampled one by one.
type rssMonitor struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSMonitor(every time.Duration) *rssMonitor {
	m := &rssMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.samples = append(m.samples, peakRSSMB())
				return
			case <-t.C:
				m.samples = append(m.samples, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return m
}

// finish stops the monitor, waits for it, and returns its samples in MiB.
func (m *rssMonitor) finish() []float64 {
	close(m.stop)
	<-m.done
	return m.samples
}
