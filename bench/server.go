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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// server is one qservd child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	client *http.Client
	exited chan struct{} // closed once the child has been reaped
}

// startServer executes qservd on dataPath and returns once /healthz answers.
// The child gets SIGKILL if the harness dies, so no exit path leaks it.
func startServer(bin, dataPath, logPath string) (*server, error) {
	// Reserve a free port, release it, and hand it to the child at once.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("no free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-data", dataPath, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start qservd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, client: &http.Client{Timeout: 10 * time.Second},
		exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.log.Close()
			out, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("qservd exited during start-up (port %s taken?): %s", addr, bytes.TrimSpace(out))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("qservd not healthy after 60s")
		}
	}
}

// stop kills the child and waits until it is gone.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// get fetches path and hands the 200 response body to decode.
func (s *server) get(path string, decode func(io.Reader) error) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return decode(resp.Body)
}

func (s *server) stats() (st serve.Stats, err error) {
	err = s.get("/v1/stats", func(r io.Reader) error { return json.NewDecoder(r).Decode(&st) })
	return st, err
}

// memStats is the part of runtime.MemStats the per-layer metrics use.
type memStats struct {
	Mallocs      uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func parseMemStats(r io.Reader) (memStats, error) {
	var v struct {
		MemStats *memStats `json:"memstats"`
	}
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		return memStats{}, err
	}
	if v.MemStats == nil {
		return memStats{}, fmt.Errorf("no memstats in /debug/vars")
	}
	return *v.MemStats, nil
}

func (s *server) memStats() (m memStats, err error) {
	err = s.get("/debug/vars", func(r io.Reader) (e error) {
		m, e = parseMemStats(r)
		return e
	})
	return m, err
}

// postJSON is the set-up path's request helper; timed traffic goes through
// a client's transport instead.
func (s *server) postJSON(path string, req, v interface{}) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cpuTicks are a process's user and system CPU time in clock ticks.
type cpuTicks struct{ user, sys int64 }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times. Linux fixes it
// at 100 on every architecture Go supports.
const clockTick = 100

// parseProcStat extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name, field 2, may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (cpuTicks, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return cpuTicks{}, fmt.Errorf("malformed stat line %q", line)
	}
	f := strings.Fields(line[i+1:])
	if len(f) < 13 {
		return cpuTicks{}, fmt.Errorf("short stat line %q", line)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTicks{}, fmt.Errorf("malformed stat times in %q", line)
	}
	return cpuTicks{u, s}, nil
}

func procCPU(pid int) (cpuTicks, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTicks{}, err
	}
	return parseProcStat(string(b))
}

// parseVmHWM extracts the peak resident set size in KiB from
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line")
}

func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	return float64(kb) / 1024, err
}

// loadAvg1 is the 1-minute load average.
func loadAvg1() (float64, error) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, fmt.Errorf("empty /proc/loadavg")
	}
	return strconv.ParseFloat(f[0], 64)
}
