package main

import (
	"bytes"
	"context"
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

// daemon is one timelyd child process built from the tree, running with
// default flags on a free loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // valid after exited is closed
	stopped bool
}

// bootDaemon starts timelyd and waits until /healthz answers.
func bootDaemon(ctx context.Context, cfg config, n int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.Out, fmt.Sprintf("timelyd-%s-%d.log", cfg.Workload, n))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		cmd:     exec.Command(cfg.Timelyd, "-addr", addr),
		base:    "http://" + addr,
		logPath: logPath,
		exited:  make(chan struct{}),
	}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting timelyd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if err := d.alive(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("timelyd did not become healthy on %s", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
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

// alive reports an error, with the tail of the child's log, once timelyd
// has exited without being asked to.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		if d.stopped {
			return nil
		}
		tail, _ := os.ReadFile(d.logPath)
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return fmt.Errorf("timelyd died (%v); log tail:\n%s", d.waitErr, tail)
	default:
		return nil
	}
}

// peakRSSMB reads the child's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := vmHWMKB(strconv.Itoa(d.cmd.Process.Pid))
	return kb / 1024, err
}

// cpu reads the child's user+system CPU seconds.
func (d *daemon) cpu() (float64, error) { return cpuSeconds(d.cmd.Process.Pid) }

// stop sends SIGTERM and waits for the process to exit, killing it if the
// drain takes too long. It is safe to call more than once.
func (d *daemon) stop() error {
	if err := d.alive(); err != nil {
		return err
	}
	if d.stopped {
		<-d.exited
		return nil
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return nil
}

// metricz scrapes the service counters.
func (d *daemon) metricz(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(d.base + "/metricz")
	if err != nil {
		return nil, fmt.Errorf("scraping /metricz: %w", err)
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metricz: %w", err)
	}
	return m, nil
}

// newConn returns a client that holds exactly one keep-alive connection,
// so the number of clients bounds the connections a run opens.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// reply is one /v1/evaluate exchange as the client saw it.
type reply struct {
	Status      int
	CacheStatus string
	Body        []byte
	Err         error
}

func (r reply) ok() bool { return r.Err == nil && r.Status == http.StatusOK }

// evaluate POSTs one request body to /v1/evaluate.
func evaluate(hc *http.Client, base string, body []byte) reply {
	resp, err := hc.Post(base+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{Err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{Status: resp.StatusCode, CacheStatus: resp.Header.Get("Cache-Status"), Body: b, Err: err}
}

// warm sends the set-up bodies one after another on one connection and
// insists every one succeeds. Sequential training keeps set-up time and
// the memory it leaves behind from depending on how concurrent trainings
// happened to overlap.
func warm(d *daemon, bodies [][]byte) error {
	hc := newConn()
	defer hc.CloseIdleConnections()
	for _, b := range bodies {
		if r := evaluate(hc, d.base, b); !r.ok() {
			return fmt.Errorf("warm-up %s: status %d %v %s", b, r.Status, r.Err, r.Body)
		}
	}
	return nil
}

// bootWarm boots a fresh daemon and warms it, returning the set-up time
// from exec until the warm-up bodies are answered.
func bootWarm(ctx context.Context, cfg config, tr *Tracer, warmBodies [][]byte, seg int) (*daemon, float64, error) {
	id, start := tr.Begin()
	bid, bstart := tr.Begin()
	d, err := bootDaemon(ctx, cfg, seg)
	if err != nil {
		return nil, 0, err
	}
	tr.End(bid, id, 0, "setup.boot_timelyd", bstart)
	wid, wstart := tr.Begin()
	if err := warm(d, warmBodies); err != nil {
		d.stop()
		return nil, 0, err
	}
	tr.End(wid, id, 0, "setup.warm", wstart)
	tr.End(id, 0, 0, "setup", start)
	return d, since(start), nil
}

// elapsedOf extracts elapsed_ms from an evaluate response body.
func elapsedOf(body []byte) (float64, bool) {
	var v struct {
		ElapsedMS *float64 `json:"elapsed_ms"`
	}
	if json.Unmarshal(body, &v) != nil || v.ElapsedMS == nil {
		return 0, false
	}
	return *v.ElapsedMS, true
}

// describe shortens a request body for log lines.
func describe(body []byte) string {
	s := strings.Join(strings.Fields(string(body)), " ")
	if len(s) > 120 {
		s = s[:120] + "..."
	}
	return s
}
