package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsssp/bench/internal/stats"
)

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads another process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, after the parenthesised command).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rssMB reads a process's ("self" or a pid) resident set size, VmRSS,
// in MiB.
func rssMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%s/status", pid)
}

// rssSampler samples a process's resident set every 50 ms. The median of
// the samples is the memory figure: the high-water mark (VmHWM) of a Go
// process lands on one of two levels from run to run depending on when
// the collector ran, 65 or 83 MiB for the same serve-hot run.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var xs []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := rssMB(pid); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-s.stop:
				s.done <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	xs := <-s.done
	if len(xs) == 0 {
		return 0, fmt.Errorf("no resident-set sample")
	}
	return stats.Median(xs), nil
}
