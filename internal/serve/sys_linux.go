//go:build linux

package serve

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// memAvailable reads MemAvailable from /proc/meminfo in bytes (0 when it
// cannot be determined).
func memAvailable() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "MemAvailable:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, perr := strconv.ParseInt(fields[1], 10, 64)
		if perr != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
