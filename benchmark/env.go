package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// environment is recorded in every result document, so a number can be
// traced back to the machine and settings that produced it.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
	// DataDirFS is the filesystem type under the value log ("" when the
	// workload keeps nothing on disk); DataDirNote says when the tmpfs
	// preference could not be met.
	DataDirFS   string `json:"data_dir_fs,omitempty"`
	DataDirNote string `json:"data_dir_note,omitempty"`
	// CalibBeforeMs and CalibAfterMs time a fixed SHA-256 loop before and
	// after the run: a disturbed host shows here, it is never corrected for.
	CalibBeforeMs float64 `json:"calib_cpu_ms_before"`
	CalibAfterMs  float64 `json:"calib_cpu_ms_after"`
}

func captureEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     buildCommit(),
	}
}

// buildCommit reads the revision the Go toolchain stamped into the binary;
// a checkout that is not a git repository has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// calibrate times a fixed amount of stdlib work (SHA-256 over 16 MiB) in
// milliseconds.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	var sum [sha256.Size]byte
	for i := 0; i < 16; i++ {
		buf[0] = sum[0]
		sum = sha256.Sum256(buf)
	}
	return float64(time.Since(start)) / 1e6
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fsTypeName names the filesystem holding dir.
func fsTypeName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "other"
}

// makeDataDir creates the directory the replicated workload's value logs
// live in. tmpfs is preferred because a shared disk's flush latency is
// the host's, not the store's; when /dev/shm is not usable the directory
// is made under fallback (inside the checkout) and the note says so.
func makeDataDir(fallback string) (dir, fsType, note string, err error) {
	if dir, err = os.MkdirTemp("/dev/shm", "precursor-benchmark-"); err == nil {
		if fs := fsTypeName(dir); fs == "tmpfs" {
			return dir, fs, "", nil
		}
		_ = os.RemoveAll(dir)
	}
	if err = os.MkdirAll(fallback, 0o755); err != nil {
		return "", "", "", err
	}
	dir, err = os.MkdirTemp(fallback, "data-")
	if err != nil {
		return "", "", "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", "", err
	}
	return abs, fsTypeName(abs), "tmpfs (/dev/shm) unavailable; value log on " + fsTypeName(abs) + ", flush latency is the disk's", nil
}
