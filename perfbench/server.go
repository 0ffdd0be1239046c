package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/serve"
)

// child is one running resolved process.
type child struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// spawn starts resolved with the given flags, its output going to logPath.
func spawn(bin, logPath string, args []string) (*child, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// Should the benchmark itself be killed, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, log: f, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	return c, nil
}

// stop interrupts the process (resolved drains and prints its scorecard),
// kills it if it has not exited in time, and waits for it.
func (c *child) stop() error {
	defer c.log.Close()
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case err := <-c.done:
		return err
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
		return errors.New("resolved did not exit on SIGINT; killed")
	}
}

// alive returns an error once the process has exited.
func (c *child) alive() error {
	select {
	case err := <-c.done:
		c.done <- err
		return fmt.Errorf("resolved exited before answering: %v", err)
	default:
		return nil
	}
}

// awaitReady probes the server until one A query for name gets a reply
// that passes the answer check, and returns the time from start. A reply
// that fails the check fails the run: a server that answers wrongly is not
// ready. alive, when set, reports a server process that has died.
func awaitReady(d *driver, name dns.Name, start time.Time, limit time.Duration, alive func() error) (time.Duration, error) {
	for time.Since(start) < limit {
		if alive != nil {
			if err := alive(); err != nil {
				return 0, err
			}
		}
		q := dns.NewQuery(0, name, dns.TypeA, true)
		pkt, err := d.exchange(q, time.Second)
		if errors.Is(err, syscall.ECONNREFUSED) {
			// Nothing listens yet.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("readiness probe: %w", err)
		}
		switch st, why := checkAnswer(pkt, q.Header.ID, name, false); st {
		case outcomeOK:
			return time.Since(start), nil
		case outcomeRefused:
			// Shed while the first resolution builds lazy state: not
			// ready yet.
			time.Sleep(10 * time.Millisecond)
		default:
			return 0, fmt.Errorf("readiness probe for %s: %s", name, outcomeText(st, why))
		}
	}
	return 0, fmt.Errorf("no correct answer within %s", limit)
}

// scrape reads the server's stats surface through driver socket 0.
func scrape(d *driver) (serve.Snapshot, error) {
	for attempt := 0; attempt < 3; attempt++ {
		pkt, err := d.exchange(dns.NewQuery(0, serve.StatsName, dns.TypeTXT, false), time.Second)
		if err != nil {
			continue
		}
		m, err := dns.DecodeMessage(pkt)
		if err != nil {
			return serve.Snapshot{}, fmt.Errorf("stats reply: %w", err)
		}
		return serve.ParseSnapshot(m)
	}
	return serve.Snapshot{}, errors.New("stats surface did not answer")
}

// servingLine matches resolved's startup banner, which states the width it
// actually runs at.
var servingLine = regexp.MustCompile(`workers=(\d+), udp-shards=\d+`)

// bannerWorkers reads from resolved's log how many resolver instances it
// runs: GOMAXPROCS, unless -workers says otherwise.
func bannerWorkers(logPath string) (int, error) {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return 0, err
	}
	m := servingLine.FindSubmatch(b)
	if m == nil {
		return 0, fmt.Errorf("%s: no serving banner", logPath)
	}
	return strconv.Atoi(string(m[1]))
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// parseProcStat extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name, field 2, is parenthesized and
// may itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM reads the VmHWM line of a /proc/<pid>/status file.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[2] != "kB" {
			return 0, fmt.Errorf("proc status: odd line %q", line)
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the system-wide CPU time accounting of /proc/stat: all
// ticks, and the ticks the hypervisor gave to other guests (steal).
type hostCPU struct{ total, steal uint64 }

// readHostCPU reads the aggregate "cpu" line of /proc/stat.
func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(b)
}

// parseHostCPU parses the aggregate line: user nice system idle iowait
// irq softirq steal ...
func parseHostCPU(b []byte) (hostCPU, error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: no aggregate cpu line")
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: %w", err)
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealPct is the share of the host's CPU time between two readings that
// the hypervisor gave to other guests.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
