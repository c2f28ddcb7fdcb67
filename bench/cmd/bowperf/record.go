package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// record is everything one run measured, with what it ran on. The
// result line the contract asks for is derived from it; -compare reads
// it back.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      int                `json:"trace"`
	Seconds    int                `json:"seconds"`
	GitSHA     string             `json:"git_sha"`
	GitDirty   bool               `json:"git_dirty"`
	Host       host               `json:"host"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	Values     map[string]float64 `json:"values"`
}

type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostInfo() host {
	h := host{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitState reports HEAD and whether the tree differs from it, for the
// working directory only: git may not search its parents, so a checkout
// that is not itself a repository reports "unknown" rather than the SHA
// of some enclosing one.
func gitState() (sha string, dirty bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if sha, err = git("rev-parse", "HEAD"); err != nil {
		return "unknown", false
	}
	status, err := git("status", "--porcelain")
	return sha, err != nil || status != ""
}

// cpuSeconds is the CPU time this process has used so far, all threads,
// user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stolenSeconds is the time the hypervisor has given this machine's
// CPUs to other guests, averaged per CPU: the steal column of
// /proc/stat in USER_HZ (100 Hz) ticks. It is 0 where /proc/stat is
// unavailable. Subtracting its growth from a wall-clock interval
// removes the part of the interval the machine did not have.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal float64
	cpus := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			steal, _ = strconv.ParseFloat(f[8], 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return steal / 100 / float64(cpus)
}

// hostClock reads wall, process CPU and stolen time together.
type hostClock struct {
	wall        time.Time
	cpu, stolen float64
}

func readClock() hostClock {
	return hostClock{wall: time.Now(), cpu: cpuSeconds(), stolen: stolenSeconds()}
}

// since returns the wall, CPU and stolen seconds elapsed since c.
func (c hostClock) since() (wall, cpu, stolen float64) {
	now := readClock()
	return now.wall.Sub(c.wall).Seconds(), now.cpu - c.cpu, now.stolen - c.stolen
}

// yardstick is a fixed stdlib SHA-256 job. No change to the repository
// can move its speed, so sampling it between rounds makes host drift
// visible next to the simulator's numbers.
var yardstick = func() []byte {
	b := make([]byte, 1<<20)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}()

func sha256MBps() float64 {
	t0 := time.Now()
	sha256.Sum256(yardstick)
	return float64(len(yardstick)) / 1e6 / time.Since(t0).Seconds()
}
