package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one pstld child process.
type proc struct {
	name, url string
	cmd       *exec.Cmd
	logPath   string
	done      chan struct{} // closed once the process has exited
}

// procSet tracks the children of a run so that every exit path stops them.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

func (s *procSet) add(p *proc) {
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
}

func (s *procSet) stopAll() {
	s.mu.Lock()
	ps := s.procs
	s.procs = nil
	s.mu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// freeLoopbackAddr binds an ephemeral loopback port, releases it, and
// refuses it if anything still answers there: a stale pstld on the port
// would silently take the benchmark's requests while the new daemon dies
// with "address already in use".
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
		c.Close()
		return "", fmt.Errorf("refusing to start: a stale listener answers on %s", addr)
	}
	return addr, nil
}

// startPstld launches pstld on a fresh loopback port with args. Its stderr
// goes to a log in the run's temp dir, quoted on failure.
func (e *env) startPstld(name string, args ...string) (*proc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.tmp, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(e.pstld, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	// A benchmark killed outright still takes its daemons down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	e.procs.add(p)
	return p, nil
}

// waitReady polls GET /healthz every millisecond until it answers 200 with
// ok=true and, when shards > 0, that many healthy shards.
func (p *proc) waitReady(shards int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up: %s", p.name, p.logTail())
		default:
		}
		if resp, err := hc.Get(p.url + "/healthz"); err == nil {
			var h struct {
				OK            bool `json:"ok"`
				HealthyShards int  `json:"healthy_shards"`
			}
			err := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.OK && (shards == 0 || h.HealthyShards == shards) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %s", p.name, timeout, p.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.logPath)
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = s[len(s)-400:]
	}
	return s
}

// stop sends SIGTERM (pstld drains), escalates to SIGKILL after three
// seconds, and waits for the exit.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(3 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }
