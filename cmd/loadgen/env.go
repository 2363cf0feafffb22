package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envStamp identifies the machine a run was measured on. Numbers from
// different stamps are not comparable; compare warns when they differ.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	TempFS     string `json:"temp_fs"`
}

func stampEnv(workdir string) envStamp {
	return envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		TempFS:     fsType(workdir),
	}
}

// cpuModel is the first "model name" in /proc/cpuinfo, or the
// architecture where that file does not exist.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for line := range strings.Lines(string(data)) {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// fsType is the filesystem type of the mount holding dir (the longest
// /proc/mounts mount point that prefixes it), which decides what an fsync
// costs; "unknown" where mounts are not readable.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for line := range strings.Lines(string(data)) {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
