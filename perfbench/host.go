package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts are recorded with every run so that results from different
// hosts, sizes or trees are never compared silently.
type hostFacts struct {
	nproc, gomaxprocs int
	goVersion, commit string
	llcBytes          int64
	largeRuleN        int // smallest power of two whose array is >= 4x LLC
	largeN, sortN     int // sizes actually run (capped, see kernels.go)
	svcWorkers        int // per-shard / per-worker pool size of the svc workloads
}

func collectFacts(root string) hostFacts {
	f := hostFacts{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     treeID(root),
		llcBytes:   llcBytes(),
	}
	f.largeRuleN = 1
	for int64(f.largeRuleN)*8 < 4*f.llcBytes {
		f.largeRuleN <<= 1
	}
	f.largeN = min(f.largeRuleN, largeCap)
	f.sortN = min(f.largeRuleN, sortCap)
	f.svcWorkers = max(1, f.nproc/2)
	return f
}

func (f hostFacts) print() {
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s tree=%s\n", f.nproc, f.gomaxprocs, f.goVersion, f.commit)
	fmt.Printf("# host llc_bytes=%d large_rule_n=%d large_n=%d sort_large_n=%d small_n=%d\n",
		f.llcBytes, f.largeRuleN, f.largeN, f.sortN, smallN)
	fmt.Printf("# pools kernels=%d svc_workers=%d stream_workers=%d\n", f.nproc, f.svcWorkers, f.nproc)
}

// llcBytes reads the largest cache level's size from sysfs (32 MiB when
// unreadable).
func llcBytes() int64 {
	best, bestLevel := int64(32<<20), -1
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil || level <= bestLevel {
			continue
		}
		if b := parseSize(strings.TrimSpace(string(sz))); b > 0 {
			best, bestLevel = b, level
		}
	}
	return best
}

func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// treeID names the source tree: the git commit when .git is readable, plus
// a digest of every Go source and module file, which also identifies an
// exported tree that carries no git metadata.
func treeID(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err == nil {
			rel, _ := filepath.Rel(root, p)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	id := "src:" + hex.EncodeToString(h.Sum(nil))[:12]
	if c := gitHead(root); c != "" {
		id = "git:" + c + "," + id
	}
	return id
}

func gitHead(root string) string {
	b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head[:min(12, len(head))]
	}
	if c, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(c))[:12]
	}
	return ""
}

// peakRSSMiB returns a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
