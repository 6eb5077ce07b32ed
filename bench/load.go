package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"periodica/internal/dist"
	"periodica/internal/httpapi"
)

// roundInput is what the parent sends a round's child process on stdin: the
// workload, how long to measure, and the prepared pool with its answers.
// AllocPass asks the round to measure allocation and response size too.
type roundInput struct {
	Workload  string
	Seconds   float64
	Bodies    [][]byte
	Expected  [][]byte
	AllocPass bool
}

// segments is how many stretches a round's measured window is cut into. The
// clients pause between them while calibrate reads the host's speed, so that
// a slow spell of the host is divided out of the stretch it fell in.
const segments = 4

// roundResult is what a round's child process prints on stdout.
type roundResult struct {
	SetupS    float64 `json:"setup_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Failure   string  `json:"failure,omitempty"`
	// CalibMs holds the calibration readings taken after set-up and after
	// each segment.
	CalibMs   []float64 `json:"calib_ms"`
	Segments  []segment `json:"segments"`
	RSSP90MB  float64   `json:"rss_p90_mb"`
	GCCycles  uint32    `json:"gc_cycles"`
	GCPauseNs uint64    `json:"gc_pause_ns"`
	// AllocB and RespB are the alloc pass's bytes allocated and bytes
	// answered for each pool entry, in a round that ran it.
	AllocB []uint64 `json:"alloc_bytes,omitempty"`
	RespB  []int    `json:"resp_bytes,omitempty"`
}

// segment is one stretch of a round's measured window.
type segment struct {
	LatencyMs []float64 `json:"latency_ms"`
	WindowS   float64   `json:"window_s"`
	CPUS      float64   `json:"cpu_s"`
}

// ops is the number of requests the round completed in its window.
func (r *roundResult) ops() int {
	n := 0
	for _, sg := range r.Segments {
		n += len(sg.LatencyMs)
	}
	return n
}

// roundMain runs one timed round in this process and reports it on stdout.
// Each round gets a fresh process so that set-up is measured cold and the
// resident set belongs to the round alone.
func roundMain() error {
	var in roundInput
	if err := gob.NewDecoder(os.Stdin).Decode(&in); err != nil {
		return fmt.Errorf("reading round input: %w", err)
	}
	w, err := lookupWorkload(in.Workload)
	if err != nil {
		return err
	}
	res, err := timedRound(w, &in)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// stack is the served system of one workload: an httpapi server on a
// loopback listener and, for a dist workload, the workers behind it.
type stack struct {
	handler *httpapi.Server
	front   *httptest.Server
	workers []*httptest.Server
	coord   *dist.Coordinator
}

// newStack starts a workload's servers. wrap, when non-nil, wraps each dist
// worker's handler; the traced pass uses it to time shards.
func newStack(w *workload, wrap func(worker int, h http.Handler) http.Handler) (*stack, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := &stack{}
	cfg := httpapi.Config{Logger: quiet}
	if w.distWorkers > 0 {
		urls := make([]string, w.distWorkers)
		for i := range urls {
			var h http.Handler = httpapi.New(httpapi.Config{Logger: quiet})
			if wrap != nil {
				h = wrap(i+1, h)
			}
			srv := httptest.NewServer(h)
			st.workers = append(st.workers, srv)
			urls[i] = srv.URL
		}
		coord, err := dist.New(dist.Config{Workers: urls, Logger: quiet})
		if err != nil {
			st.close()
			return nil, err
		}
		st.coord = coord
		cfg.Distributor = coord
	}
	st.handler = httpapi.New(cfg)
	st.front = httptest.NewServer(st.handler)
	return st, nil
}

// close stops every server and waits for their connections to finish.
func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	for _, srv := range st.workers {
		srv.Close()
	}
}

// client is one closed-loop caller: it holds one keep-alive connection and
// reads every response into the same buffer.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: url}
}

// post sends one request and checks the reply against want. It returns the
// reply's size, and an error for a transport failure, a status other than
// 200 or a body that differs from want.
func (c *client) post(body, want []byte) (int, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully read; a close error cannot change the verdict
	if err != nil {
		return 0, err
	}
	return c.buf.Len(), verify(resp.StatusCode, c.buf.Bytes(), want)
}

// verify is the correctness gate: a reply counts only when it has status 200
// and is byte-equal to the expected answer.
func verify(status int, got, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, got)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("body of %d bytes differs from the %d-byte expected answer at byte %d", len(got), len(want), i)
	}
	return nil
}

// tally accumulates one client's requests during one stretch of a round.
type tally struct {
	attempted, failed int
	failure           string
	latencyMs         []float64
}

// record counts a request sent at start and its latency.
func (t *tally) record(start time.Time, err error) {
	t.latencyMs = append(t.latencyMs, float64(time.Since(start))/1e6)
	t.count(err)
}

// count counts a request without timing it.
func (t *tally) count(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failure == "" {
			t.failure = err.Error()
		}
	}
}

// add folds the clients' tallies into the round's counts and returns their
// latencies.
func (res *roundResult) add(ts []tally) []float64 {
	var lat []float64
	for _, t := range ts {
		res.Attempted += t.attempted
		res.Failed += t.failed
		if res.Failure == "" {
			res.Failure = t.failure
		}
		lat = append(lat, t.latencyMs...)
	}
	return lat
}

// timedRound builds the workload's server stack, warms it with one request
// per client, then drives it closed-loop for the round's duration: each
// client sends its next request as soon as the previous reply arrives. The
// window is cut into segments, with a calibration reading between them.
func timedRound(w *workload, in *roundInput) (*roundResult, error) {
	if len(in.Bodies) == 0 || len(in.Bodies) != len(in.Expected) {
		return nil, fmt.Errorf("round input holds %d bodies and %d answers", len(in.Bodies), len(in.Expected))
	}
	res := &roundResult{}
	words := newCalibBuffer()

	setupStart := time.Now()
	st, err := newStack(w, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	clients := make([]*client, runtime.GOMAXPROCS(0))
	for i := range clients {
		clients[i] = newClient(st.front.URL + w.endpoint)
		defer clients[i].tr.CloseIdleConnections()
	}
	warm := make([]tally, len(clients))
	runClients(clients, func(i int, c *client) {
		k := i % len(in.Bodies)
		start := time.Now()
		_, err := c.post(in.Bodies[k], in.Expected[k])
		warm[i].record(start, err)
	})
	res.SetupS = time.Since(setupStart).Seconds()
	res.add(warm)
	res.CalibMs = append(res.CalibMs, calibrate(words))

	var next atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	rss := make(chan rssSamples, 1)
	go func() { rss <- sampleRSS(stop) }()
	for s := 0; s < segments; s++ {
		sg, per, err := measureSegment(clients, in, &next, in.Seconds/segments)
		if err != nil {
			close(stop)
			<-rss
			return nil, err
		}
		sg.LatencyMs = res.add(per)
		res.Segments = append(res.Segments, sg)
		res.CalibMs = append(res.CalibMs, calibrate(words))
	}
	close(stop)
	runtime.ReadMemStats(&m1)
	sampled := <-rss
	if sampled.err != nil {
		return nil, sampled.err
	}
	res.RSSP90MB = percentile(sampled.mb, 90)
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	if in.AllocPass {
		var t tally
		res.AllocB, res.RespB = allocPass(clients[0], in, &t)
		res.add([]tally{t})
	}
	return res, nil
}

// measureSegment drives the clients closed-loop for seconds and returns the
// segment's wall and CPU time with each client's tally.
func measureSegment(clients []*client, in *roundInput, next *atomic.Int64, seconds float64) (segment, []tally, error) {
	var sg segment
	per := make([]tally, len(clients))
	cpu0, err := cpuSeconds()
	if err != nil {
		return sg, nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	runClients(clients, func(i int, c *client) {
		for time.Now().Before(deadline) {
			k := int(next.Add(1)-1) % len(in.Bodies)
			t := time.Now()
			_, err := c.post(in.Bodies[k], in.Expected[k])
			per[i].record(t, err)
		}
	})
	sg.WindowS = time.Since(start).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return sg, nil, err
	}
	sg.CPUS = cpu1 - cpu0
	return sg, per, nil
}

// allocPass sends every pool entry once more, one request at a time, and
// returns the bytes each request allocated in the process (server and
// client) and the bytes of its reply. Before each request two collections
// empty every sync.Pool, so the request grows every buffer it needs, the
// 8 MB encoder buffer of a paper-dense reply included, and allocates the
// same bytes on every run. Measured over the window instead, allocation per
// request moved by 3% between runs of the same inputs, with how often the
// collector happened to empty the pools. With warm pools it was no steadier:
// a pooled buffer sits in the cache of one P and was found or missed with
// scheduling, so the same request allocated 11 or 16 MiB on walmart-values.
// A change that only pools a buffer better does not show here; it shows in
// CPU time and the collector's counts.
func allocPass(c *client, in *roundInput, t *tally) (allocB []uint64, respB []int) {
	longest := 0
	for _, e := range in.Expected {
		longest = max(longest, len(e))
	}
	c.buf.Reset()
	c.buf.Grow(longest + bytes.MinRead) // so reading a reply never grows it
	for k := range in.Bodies {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		n, err := c.post(in.Bodies[k], in.Expected[k])
		runtime.ReadMemStats(&m1)
		t.count(err)
		allocB = append(allocB, m1.TotalAlloc-m0.TotalAlloc)
		respB = append(respB, n)
	}
	return allocB, respB
}

// runClients runs f once per client, each on its own goroutine, and returns
// when all have returned.
func runClients(clients []*client, f func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, c)
		}()
	}
	wg.Wait()
}

// cpuSeconds returns this process's user+system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// rssEvery is the resident-set sampling interval during a measured window.
const rssEvery = 50 * time.Millisecond

// rssSamples are the resident-set readings of one measured window, in MiB.
type rssSamples struct {
	mb  []float64
	err error
}

// sampleRSS reads the process's resident set every rssEvery, and once more
// when stop closes. The high-water mark (VmHWM) is no use here: it catches
// single-instant overshoots of the collector, and on dist-2w it ranges
// from 83 to 148 MiB between the rounds of one run, where the p90 of these
// samples stays within a few percent.
func sampleRSS(stop <-chan struct{}) rssSamples {
	var out rssSamples
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		kb, err := residentKB()
		if err != nil {
			out.err = err
			return out
		}
		out.mb = append(out.mb, float64(kb)/1024)
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// residentKB returns the process's current resident set (VmRSS) in KiB.
func residentKB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmRSS line in /proc/self/status")
}
