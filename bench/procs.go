package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// Every daemon the benchmark starts runs in its own process group, and
// every group is on this list until the daemon has been waited for, so
// that exit, signal, panic and the pass timeout all end with no child
// left running.
var children struct {
	sync.Mutex
	list []*daemon
}

// daemon is one started program.
type daemon struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

// buildProgram compiles ./cmd/<name> of the repository into binDir. The go
// tool's own cache makes the second and later builds a staleness check.
func buildProgram(root, binDir, name string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out.Bytes())
	}
	return bin, nil
}

// startDaemon runs bin with args, its output going to logDir/<name>.log.
func startDaemon(name, bin, logDir string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	children.Lock()
	children.list = append(children.list, d)
	children.Unlock()
	return d, nil
}

// wait blocks until the daemon has exited or the limit passed and returns
// its exit error.
func (d *daemon) wait(limit time.Duration) error {
	select {
	case <-d.done:
		d.forget()
		return d.err
	case <-time.After(limit):
		return fmt.Errorf("%s did not exit within %v", d.name, limit)
	}
}

// terminate ends a daemon that has no way to exit on its own: SIGTERM to
// its group, SIGKILL if that is ignored, then wait.
func (d *daemon) terminate() {
	d.signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		d.signal(syscall.SIGKILL)
		<-d.done
	}
	d.forget()
}

func (d *daemon) signal(s syscall.Signal) {
	// The negative pid addresses the whole group; an error means it is
	// already gone.
	_ = syscall.Kill(-d.cmd.Process.Pid, s)
}

func (d *daemon) forget() {
	d.log.Close()
	children.Lock()
	defer children.Unlock()
	for i, c := range children.list {
		if c == d {
			children.list = append(children.list[:i], children.list[i+1:]...)
			return
		}
	}
}

// killChildren ends every daemon still on the list and waits for each.
func killChildren() {
	children.Lock()
	list := append([]*daemon(nil), children.list...)
	children.Unlock()
	for _, d := range list {
		d.signal(syscall.SIGKILL)
		<-d.done
		d.forget()
	}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again before the daemon binds the port; nothing else on a
// benchmark host races for it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
