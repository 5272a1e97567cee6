package harness

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// FindRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// BuildServer compiles cmd/propserve from the checkout at root into
// outDir and returns the binary's path.
func BuildServer(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "propserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/propserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/propserve: %w\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the server binds it, so a collision is possible but
// needs another process to grab it within milliseconds.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// Server is a running propserve child process.
type Server struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
	// URL is the server's base URL; Pid its process ID.
	URL string
	Pid int
	// Started is when the process was exec'd.
	Started time.Time
}

// StartServer execs bin on a free port with the given flags, appending
// its stdout and stderr to logPath, and returns once /readyz answers 200.
// The child is killed if the harness dies without stopping it.
func StartServer(ctx context.Context, bin, dataPath string, flags []string, logPath string) (*Server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-data", dataPath, "-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &Server{cmd: cmd, log: logf, done: make(chan struct{}), URL: "http://" + addr, Started: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s.Pid = cmd.Process.Pid
	go func() {
		_ = cmd.Wait() // the exit status of a server we signal is not interesting
		close(s.done)
	}()
	if err := s.waitReady(ctx); err != nil {
		s.Stop()
		return nil, fmt.Errorf("%w (server log: %s)", err, logPath)
	}
	return s, nil
}

func (s *Server) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return errors.New("propserve exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("propserve not ready after 60s")
		}
	}
}

// Stop terminates the server — SIGTERM, then SIGKILL after 5 s — and
// returns once the process has been reaped. It is safe to call twice.
func (s *Server) Stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}
