package harness

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// tickMS is the length of one /proc clock tick: USER_HZ is 100 on every
// Linux architecture Go supports, and reading it properly needs cgo.
const tickMS = 10.0

// ParseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func ParseStatCPU(stat string) (uint64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After the command: state is field 3, utime 14, stime 15.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// ParseVmHWM returns the peak resident set size in MB (1e6 bytes; the
// kernel's "kB" are 1024 bytes) from the contents of /proc/<pid>/status.
func ParseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return float64(kb) * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func readCPUTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return ParseStatCPU(string(b))
}

func readPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return ParseVmHWM(string(b))
}

// ParseServerTiming parses a Server-Timing header of the form
// "app;dur=1.5, retrieve;dur=0.4" into name → milliseconds. Entries
// without a dur parameter are skipped.
func ParseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			v, ok := strings.CutPrefix(strings.TrimSpace(p), "dur=")
			if !ok {
				continue
			}
			if ms, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = ms
			}
		}
	}
	return out
}
