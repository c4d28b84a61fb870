package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process counters the ledger reads from
// /proc/self and the Go runtime. Deltas between two samples give the
// transport (syscall) and process (CPU, scheduler, allocation) layers.
type procSample struct {
	wall          time.Time
	cpu           time.Duration // user + system CPU of the whole process
	syscr, syscw  int64         // read and write syscalls (/proc/self/io)
	runNS, waitNS int64         // per-thread schedstat sums: on CPU, on a runqueue
	steal, ticks  int64         // host-wide steal and total CPU ticks (/proc/stat)
	allocBytes    uint64
	allocs        uint64
	gcs           uint32
}

func sampleProc() (procSample, error) {
	s := procSample{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	io, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return s, fmt.Errorf("read /proc/self/io: %w", err)
	}
	if s.syscr, err = procField(io, "syscr:"); err != nil {
		return s, err
	}
	if s.syscw, err = procField(io, "syscw:"); err != nil {
		return s, err
	}
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, fmt.Errorf("read /proc/stat: %w", err)
	}
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(strings.SplitN(string(stat), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return s, fmt.Errorf("/proc/stat: malformed cpu line")
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return s, fmt.Errorf("/proc/stat: %w", err)
		}
		s.ticks += n
		if i == 7 {
			s.steal = n
		}
	}
	tasks, err := filepath.Glob("/proc/self/task/*/schedstat")
	if err != nil {
		return s, fmt.Errorf("list threads: %w", err)
	}
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between listing and reading
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			return s, fmt.Errorf("%s: malformed schedstat %q", path, b)
		}
		run, err1 := strconv.ParseInt(f[0], 10, 64)
		wait, err2 := strconv.ParseInt(f[1], 10, 64)
		if err1 != nil || err2 != nil {
			return s, fmt.Errorf("%s: malformed schedstat %q", path, b)
		}
		s.runNS += run
		s.waitNS += wait
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes, s.allocs, s.gcs = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	return s, nil
}

// procField parses the integer that follows key in a /proc file of
// "key: value [unit]" lines.
func procField(b []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %q in /proc file", key)
}

// procDelta accumulates the difference of sample pairs over the timed
// blocks of a run.
type procDelta struct {
	wall          time.Duration
	cpu           time.Duration
	syscr, syscw  int64
	runNS, waitNS int64
	steal, ticks  int64
	allocBytes    uint64
	allocs        uint64
	gcs           uint32
}

func (d *procDelta) add(a, b procSample) {
	d.wall += b.wall.Sub(a.wall)
	d.cpu += b.cpu - a.cpu
	d.syscr += b.syscr - a.syscr
	d.syscw += b.syscw - a.syscw
	d.runNS += b.runNS - a.runNS
	d.waitNS += b.waitNS - a.waitNS
	d.steal += b.steal - a.steal
	d.ticks += b.ticks - a.ticks
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocs += b.allocs - a.allocs
	d.gcs += b.gcs - a.gcs
}

// cpuUtil is the mean number of cores busy.
func (d *procDelta) cpuUtil() float64 { return ratio(d.cpu.Seconds(), d.wall.Seconds()) }

// runqueueWaitShare is the share of the threads' runnable time spent
// waiting for a CPU rather than running.
func (d *procDelta) runqueueWaitShare() float64 {
	return ratio(float64(d.waitNS), float64(d.runNS+d.waitNS))
}

// stealShare is the share of this machine's CPU time that the hypervisor
// ran other guests instead: it flags a contended host.
func (d *procDelta) stealShare() float64 { return ratio(float64(d.steal), float64(d.ticks)) }

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read /proc/self/status: %w", err)
	}
	kb, err := procField(b, "VmHWM:")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
