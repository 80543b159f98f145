package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one budgetwfd process under test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
}

// spawned tracks every daemon still running, so main can stop them on
// any exit path.
var spawned struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemons spawns one budgetwfd per argument list and waits until
// every one answers /readyz. The returned duration is spawn → all
// ready, the workload's setup time. Each process listens on a fresh
// loopback port; its standard error goes to a log file under dir.
func startDaemons(bin, dir string, argLists ...[]string) ([]*daemon, time.Duration, error) {
	ports := make([]int, len(argLists))
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		ports[i] = p
	}
	return startDaemonsOn(bin, dir, ports, argLists...)
}

// startDaemonsOn is startDaemons on fixed ports; argument lists may
// refer to each other's URLs, which is why the ports are chosen first.
func startDaemonsOn(bin, dir string, ports []int, argLists ...[]string) ([]*daemon, time.Duration, error) {
	start := time.Now()
	var ds []*daemon
	for i, args := range argLists {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("budgetwfd-%d.log", ports[i])))
		if err != nil {
			stopDaemons(ds)
			return nil, 0, err
		}
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		// The daemon dies with the benchmark even if the benchmark is
		// killed before it can stop it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			stopDaemons(ds)
			return nil, 0, fmt.Errorf("start budgetwfd: %w", err)
		}
		d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
		go func() { cmd.Wait(); logf.Close(); close(d.done) }()
		spawned.Lock()
		if spawned.set == nil {
			spawned.set = map[*daemon]bool{}
		}
		spawned.set[d] = true
		spawned.Unlock()
		ds = append(ds, d)
	}
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for _, d := range ds {
		for {
			select {
			case <-d.done:
				stopDaemons(ds)
				return nil, 0, fmt.Errorf("budgetwfd %s exited before ready (see its log under %s)", d.url, dir)
			default:
			}
			resp, err := client.Get(d.url + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				stopDaemons(ds)
				return nil, 0, fmt.Errorf("budgetwfd %s not ready after 30s", d.url)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return ds, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stopDaemons sends SIGTERM to every daemon, escalates to SIGKILL
// after five seconds, and returns once all have exited.
func stopDaemons(ds []*daemon) {
	for _, d := range ds {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range ds {
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		spawned.Lock()
		delete(spawned.set, d)
		spawned.Unlock()
	}
}

// stopAll stops every daemon still running.
func stopAll() {
	spawned.Lock()
	var ds []*daemon
	for d := range spawned.set {
		ds = append(ds, d)
	}
	spawned.Unlock()
	stopDaemons(ds)
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// usage samples the summed CPU time of a set of processes.
func usage(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSS sums the peak RSS of a set of processes.
func peakRSS(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		r, err := procPeakRSS(pid)
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}

func pids(ds []*daemon) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.cmd.Process.Pid
	}
	return out
}
