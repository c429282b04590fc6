package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/medexd from the checkout at root into bin.
func buildDaemon(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/medexd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/medexd: %w", err)
	}
	return nil
}

// daemonFlags is the one configuration every workload runs: 4 shards
// as built, the ID3 smoking classifier trained at start-up, fsync on
// (the default flush policy), and an 8,000-row compaction trigger,
// sized so that ingest at the NLP-bound rate completes several minor
// compactions per shard and reaches the fan-out major merge within a
// run. Everything else stays at its default.
func daemonFlags(dbDir, trainDir string, shards int) []string {
	return []string{
		"-db", dbDir,
		"-shards", strconv.Itoa(shards),
		"-addr", "127.0.0.1:0",
		"-train-corpus", trainDir,
		"-backend", "id3",
		"-compact-mem-rows", "8000",
	}
}

// daemon is one running medexd child.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	stdout  chan struct{} // closed once the child's stdout is drained
	waitErr chan error
}

// startDaemon execs medexd on dbDir and returns once /readyz answers
// 200, with the time from exec to that answer: ontology load,
// classifier training, and recovery of the store (segment open, WAL
// replay, index rebuild).
func startDaemon(ctx context.Context, bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting medexd: %w", err)
	}
	d := &daemon{cmd: cmd, stdout: make(chan struct{}), waitErr: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdout)
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		const prefix = "medexd: listening on "
		if strings.HasPrefix(line, prefix) {
			addr <- strings.TrimSpace(strings.TrimPrefix(line, prefix))
		}
		close(addr)
		io.Copy(io.Discard, br)
	}()
	go func() {
		<-d.stdout // Wait must not run before the pipe is drained
		d.waitErr <- cmd.Wait()
	}()

	select {
	case a, ok := <-addr:
		if !ok {
			d.kill()
			return nil, 0, fmt.Errorf("medexd exited before listening; see %s", logPath)
		}
		d.base = "http://" + a
	case <-time.After(90 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("medexd did not listen within 90s; see %s", logPath)
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 90*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("medexd not ready within 90s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits for the graceful drain; a daemon that
// does not exit within 60s is killed. It returns the exit error: nil
// means every acknowledged batch was on disk when the engine closed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling medexd: %w", err)
	}
	select {
	case err := <-d.waitErr:
		return err
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("medexd did not drain within 60s")
	}
}

// kill ends the child at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waitErr
}

// stats is the part of /v1/stats the benchmark reads at phase
// boundaries.
type stats struct {
	Ingest struct {
		Batches  int64 `json:"batches"`
		Groups   int64 `json:"groups"`
		Rejected int64 `json:"rejected"`
	} `json:"ingest"`
	Compaction struct {
		MinorRuns      int64 `json:"minorRuns"`
		MajorRuns      int64 `json:"majorRuns"`
		BytesRewritten int64 `json:"bytesRewritten"`
		Backlog        int64 `json:"backlog"`
	} `json:"compaction"`
	Cache struct {
		Hits       int64 `json:"hits"`
		Misses     int64 `json:"misses"`
		Evictions  int64 `json:"evictions"`
		BloomSkips int64 `json:"bloomSkips"`
	} `json:"cache"`
}

func (d *daemon) stats() (stats, error) {
	var s stats
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats answered %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// procMem reads a process's peak and current resident set in MiB.
func procMem(pid int) (hwm, rss float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, perr := strconv.ParseFloat(f[1], 64)
		if perr != nil {
			continue
		}
		switch f[0] {
		case "VmHWM:":
			hwm = kb / 1024
		case "VmRSS:":
			rss = kb / 1024
		}
	}
	if hwm == 0 || rss == 0 {
		return 0, 0, fmt.Errorf("no VmHWM/VmRSS in /proc/%d/status", pid)
	}
	return hwm, rss, nil
}

// procCPU reads a process's user+system CPU time; pid 0 means this
// process.
func procCPU(pid int) (time.Duration, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields count from after it.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short %s", path)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", path, err)
	}
	return time.Duration(utime+stime) * time.Second / time.Duration(clockTicks()), nil
}

// clockTicks is the kernel's USER_HZ, read from the auxiliary vector
// (AT_CLKTCK); 100 when it cannot be read.
func clockTicks() int64 {
	raw, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	const atClkTck = 17
	for i := 0; i+16 <= len(raw); i += 16 {
		if binary.NativeEndian.Uint64(raw[i:]) == atClkTck {
			if v := int64(binary.NativeEndian.Uint64(raw[i+8:])); v > 0 {
				return v
			}
		}
	}
	return 100
}

// findRoot locates the checkout holding cmd/medexd: the working
// directory or its parent (go run -C medbench runs in medbench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "medexd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/medexd beside %s: run from a checkout of the repository", wd)
}
