package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark was written on (a 2-vCPU VM) changes speed in
// regimes that last from seconds to minutes: ten back-to-back 15 s runs
// of hot measured from 37k to 48k ops/s, and whole runs sat in one
// regime, so no statistic over a run's slices could remove it. The
// benchmark therefore measures a reference next to the program: for the
// last 1/refShare of every slice the program's clients pause and a
// separate reference process drives a null handler (net/http over
// loopback, a fixed 1 KiB body, none of the program's code) from as many
// clients. Timings are scaled by how fast that reference ran, to the
// speed they would have on a host where it answers refRPS requests/s: a
// slow regime slows both, the program's share of the time stays. The
// reference runs in a process of its own, so nothing the program does to
// its own process (heap size, GC work, goroutines, runtime settings)
// reaches it.
const (
	refShare = 4
	refRPS   = 50000.0
	refProbe = 250 * time.Millisecond // a reference measured outside a window
)

var refBody = bytes.Repeat([]byte("x"), 1024)

// refHandler serves the reference at base: "/" answers refBody, and
// "/measure?ms=N" drives "/" from conns closed-loop clients for N ms and
// answers their requests/s.
func refHandler(base string, conns int) http.Handler {
	client := newClient(conns)
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(refBody)
	})
	mux.HandleFunc("/measure", func(w http.ResponseWriter, r *http.Request) {
		ms, err := strconv.Atoi(r.URL.Query().Get("ms"))
		if err != nil || ms <= 0 {
			http.Error(w, "want ms > 0", http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%g", driveNull(client, base+"/", conns, time.Duration(ms)*time.Millisecond))
	})
	return mux
}

// driveNull runs conns closed-loop clients against url for dur and
// returns the rate of 200s.
func driveNull(client *http.Client, url string, conns int, dur time.Duration) float64 {
	var n atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				req, _ := http.NewRequest("GET", url, nil)
				if status, err := send(client, req, nil); err == nil && status == http.StatusOK {
					n.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(n.Load()) / time.Since(start).Seconds()
}

// childRef is the reference process: it serves refHandler on loopback,
// prints its address, and exits when its standard input closes.
func childRef(conns int) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: reference:", err)
		return 1
	}
	hs := &http.Server{Handler: refHandler("http://"+ln.Addr().String(), conns)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed from Close
	}()
	fmt.Println(ln.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin)
	_ = hs.Close()
	<-done
	return 0
}

// refProcess is a running reference process.
type refProcess struct {
	cmd   *exec.Cmd
	stdin io.Closer
	addr  string
}

// startRef starts the reference process and waits for its address.
func startRef(conns int) (*refProcess, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role", "ref")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &refProcess{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("reference process: %w", err)
	}
	p.addr = strings.TrimSpace(line)
	return p, nil
}

// stop closes the process's standard input and waits for it to exit.
func (p *refProcess) stop() {
	_ = p.stdin.Close()
	_ = p.cmd.Wait()
}

// refRate has the reference process measure itself for dur and returns
// its requests/s. No publish runs meanwhile (see publish), and the
// program's clients are paused, so the reference measures the host.
func (e *env) refRate(dur time.Duration) (float64, error) {
	e.quiet.Lock()
	defer e.quiet.Unlock()
	req, err := http.NewRequest("GET", fmt.Sprintf("http://%s/measure?ms=%d", e.refAddr, dur.Milliseconds()), nil)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	status, err := send(e.admin, req, &buf)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("reference: status %d, %v", status, err)
	}
	return strconv.ParseFloat(buf.String(), 64)
}

// scaleFor converts a measured reference rate into the factor that
// quotes throughputs at refRPS (multiply) and times at refRPS (divide).
// An unmeasured rate scales by 1.
func scaleFor(measured float64) float64 {
	if measured <= 0 {
		return 1
	}
	return refRPS / measured
}
