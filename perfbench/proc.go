package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished child process as the user would see it.
type procResult struct {
	Wall   float64 // seconds from exec to exit
	CPU    float64 // user+sys seconds, from rusage
	RSSMB  float64 // peak resident set, MB
	Stdout []byte
	Stderr []byte
}

// childEnv is the environment every process under test gets: the
// caller's, minus the HETEROPIM_* knobs, so a stray cache directory or
// worker override cannot change what is measured.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "HETEROPIM_") {
			env = append(env, kv)
		}
	}
	return env
}

// usage reads CPU seconds and peak RSS (MB) from an exited process.
func usage(st *os.ProcessState) (cpu, rssMB float64) {
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return st.UserTime().Seconds() + st.SystemTime().Seconds(), 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// execTimeout bounds one exec of a CLI, so a hung program fails the run
// instead of outliving it.
const execTimeout = 2 * time.Minute

// command prepares a child that is killed if the benchmark itself dies,
// so no process outlives a run.
func command(ctx context.Context, dir, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runProc runs one command to completion and times it from exec to
// exit. A non-zero exit is an error carrying the command's stderr.
func runProc(ctx context.Context, dir, name string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(ctx, execTimeout)
	defer cancel()
	cmd := command(ctx, dir, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	res := procResult{Wall: wall, Stdout: stdout.Bytes(), Stderr: stderr.Bytes()}
	if cmd.ProcessState != nil {
		res.CPU, res.RSSMB = usage(cmd.ProcessState)
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	return res, nil
}

// lastLines keeps the tail of a diagnostic stream.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// daemon is a long-running child (a pimserve replica or router).
type daemon struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
	err    error
}

// startDaemon starts a child that runs until stopped.
func startDaemon(dir, name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, done: make(chan struct{})}
	d.cmd = command(context.Background(), dir, name, args...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// peakRSS reads a live process's peak resident set (VmHWM, MB) from
// /proc. rusage's maxrss is not the daemon's own: a child started by
// Go's vfork-style clone starts its high-water mark at its parent's
// resident set, and the benchmark's grows as it records responses.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// stop sends SIGTERM, waits for a clean exit and returns the process's
// CPU seconds and peak RSS, read just before the signal. A daemon that
// does not exit in time is killed and reported as an error.
func (d *daemon) stop(timeout time.Duration) (cpu, rssMB float64, err error) {
	select {
	case <-d.done:
		return 0, 0, fmt.Errorf("%s exited before it was stopped: %v: %s", d.name, d.err, lastLines(d.stderr.String(), 5))
	default:
		rssMB, err = peakRSS(d.cmd.Process.Pid)
		if err != nil {
			d.kill()
			return 0, 0, err
		}
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(timeout):
			_ = d.cmd.Process.Kill()
			<-d.done
			return 0, 0, fmt.Errorf("%s did not drain within %s", d.name, timeout)
		}
	}
	cpu, _ = usage(d.cmd.ProcessState)
	if d.err != nil {
		return cpu, rssMB, fmt.Errorf("%s: %v: %s", d.name, d.err, lastLines(d.stderr.String(), 5))
	}
	return cpu, rssMB, nil
}

// kill ends the daemon without a drain (error paths only).
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}
