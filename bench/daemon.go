package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env locates everything a run touches: the repository root (where
// cmd/proqld and BENCHMARK.json live), the proqld binary built from it,
// and the scratch directory for data dirs, traces and result files.
type env struct {
	root   string
	proqld string
	out    string // bench/out, git-ignored
	tmp    string // per-process scratch under out, removed at exit
}

// newEnv finds the repository root from the working directory (the root
// itself under run.sh, bench/ under go test) and builds cmd/proqld.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := wd
	if _, err := os.Stat(filepath.Join(root, "cmd", "proqld", "main.go")); err != nil {
		root = filepath.Dir(wd)
		if _, err := os.Stat(filepath.Join(root, "cmd", "proqld", "main.go")); err != nil {
			return nil, fmt.Errorf("cmd/proqld not found from %s: run from the repository root", wd)
		}
	}
	e := &env{
		root:   root,
		proqld: filepath.Join(root, ".bench_build", "proqld"),
		out:    filepath.Join(root, "bench", "out"),
	}
	e.tmp = filepath.Join(e.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", e.proqld, "./cmd/proqld")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/proqld: %v\n%s", err, out)
	}
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.tmp) }

// daemon is one proqld child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	wait   chan struct{} // closed once the process has been reaped
	// setup is exec → first 200 on /v1/healthz.
	setup time.Duration
}

// startDaemon execs proqld for the spec's instance on a free port and
// waits until it answers the liveness probe.
func (e *env) startDaemon(sp spec, seed int64, dataDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{
		"-addr", addr,
		"-peers", strconv.Itoa(sp.peers), "-data", strconv.Itoa(sp.data), "-base", strconv.Itoa(sp.base),
		"-seed", strconv.FormatInt(seed, 10),
		"-retain", strconv.Itoa(sp.retain),
	}
	if sp.durable {
		args = append(args, "-data-dir", dataDir,
			"-sync-every", strconv.Itoa(syncEvery), "-checkpoint-every", strconv.Itoa(checkpointEvery))
	}
	d := &daemon{cmd: exec.Command(e.proqld, args...), base: "http://" + addr}
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	d.wait = exited
	go func() { d.cmd.Wait(); close(exited) }()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(start) < 60*time.Second {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("proqld exited during start-up: %s", d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.kill()
	return nil, fmt.Errorf("proqld not healthy after 60s: %s", d.stderr.String())
}

// kill sends SIGKILL and waits until the process has ended.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.wait
}

// procStat is what /proc/<pid> says about the daemon.
type procStat struct {
	cpu   time.Duration // utime+stime
	hwmMB float64       // VmHWM
}

func (d *daemon) proc() (procStat, error) {
	var ps procStat
	pid := strconv.Itoa(d.cmd.Process.Pid)
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * (time.Second / 100)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			ps.hwmMB = kb / 1024
		}
	}
	return ps, nil
}

// rssMB is the daemon's resident set right now, from /proc/<pid>/statm.
func (d *daemon) rssMB() float64 {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// serverStats mirrors the fields of proqld's /v1/stats the harness reads.
type serverStats struct {
	Epoch            uint64 `json:"epoch"`
	RetainedVersions int64  `json:"retained_versions"`
	InstanceSize     int    `json:"instance_size"`
	Queries          int64  `json:"queries"`
	Commits          int64  `json:"commits"`
	Rejected         int64  `json:"rejected"`
	Timeouts         int64  `json:"timeouts"`
	CacheEntries     int    `json:"cache_entries"`
	CacheHits        int    `json:"cache_hits"`
	CacheMisses      int    `json:"cache_misses"`
}

func (d *daemon) stats(hc *http.Client) (serverStats, error) {
	var st serverStats
	resp, err := hc.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// selfCPU is the load generator's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
