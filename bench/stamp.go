package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// Stamp identifies the machine and build a set of numbers came from.
// Everything is read from the runtime or /proc; nothing shells out.
type Stamp struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of the measuring children
	LoadAvg1   float64 `json:"loadavg_1min"`
	GitSHA     string  `json:"git_sha"`
}

// childProcs is the GOMAXPROCS every measuring child runs with: enough
// for the live cluster's goroutines and the parallel engines' two lanes,
// never more than the box has.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func machineStamp(sha string) Stamp {
	s := Stamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: childProcs(),
		LoadAvg1:   loadAvg1(),
		GitSHA:     sha,
	}
	if s.GitSHA == "" {
		s.GitSHA = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, kv := range bi.Settings {
				if kv.Key == "vcs.revision" {
					s.GitSHA = kv.Value
				}
			}
		}
	}
	return s
}

// warnings names the conditions under which the numbers deserve less
// trust; the caller prints them instead of proceeding silently.
func (s Stamp) warnings() []string {
	var w []string
	if s.LoadAvg1 > 0.5*float64(s.NumCPU) {
		w = append(w, fmt.Sprintf("1-min load average %.2f exceeds half of nproc=%d: timings will be noisy", s.LoadAvg1, s.NumCPU))
	}
	if s.NumCPU < 2 {
		w = append(w, "nproc < 2: two lanes cannot run concurrently, so pdes.*_l2.* and pdes.l2_speedup are unresolved")
	}
	return w
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0: no warning, no failure
	return v
}

// peakRSSMB returns this process's VmHWM (peak resident set) in MB, or 0
// where /proc does not provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(fields[0], 64) // malformed line reads as 0
			return kb / 1024
		}
	}
	return 0
}
