package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostStamp identifies where and how a result was measured; it rides
// in every results file and is printed first on every run.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func stampHost(o opts) hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Workload:   o.workload,
		Seed:       o.seed,
		Smoke:      o.smoke,
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Seed)
}

// cpuModel reads the processor name the kernel reports ("unknown" where
// /proc/cpuinfo is absent or unreadable).
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
