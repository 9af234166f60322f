package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"facs"
)

// The served deployment: sharded SCC over TCP NDJSON. Only facs-serve's
// core flags are used, so option additions cannot break the workload.
const (
	servedRings    = 8 // 217 cells
	servedShards   = 2
	servedCapacity = 40
	// holdRequests is how many request lines a committed call lives
	// for; every rung therefore carries the same live-call population,
	// about 590 calls. SCC's guard-band fallback re-sums every live
	// call, so its cost grows with the population: at 3000 (about 2300
	// live calls) the server fell behind even 400 requests/s.
	holdRequests = 600
	// tickEvery sends a tick op after so many request lines.
	tickEvery = 250
	// handoffEvery moves one in so many committed calls to a
	// neighbouring cell half-way through its hold.
	handoffEvery = 4
	// logicalStep is the simulated time between request lines, in
	// seconds; it does not depend on the offered rate.
	logicalStep = 0.02
	// window caps the requests in flight in the window-bounded phases,
	// well below the server's smallest per-class intake cap.
	window = 256
	// abortOutstanding ends a ladder rung early once this many requests
	// wait for a response: the backlog is growing, and going on would
	// only reach the server's shedding cap.
	abortOutstanding = 400
	// setupStarts is how many server starts sample set-up time.
	setupStarts = 9
)

// The fixed rates sit below the knee (measured near 5000-6500/s on two
// CPUs shared by client and server); the ladder reaches past it.
const (
	lowRate  = 500.0
	highRate = 2000.0
	rungSize = 1200 // a p99 needs 1000 samples
	// The fixed rates take 20% and 10% of the budget; the saturation
	// burst sends this many requests per budget second.
	lowShare, highShare = 0.20, 0.10
	saturationPerSec    = 2500
	saturationWindows   = 6
)

var (
	ladder    = []float64{600, 1000, 1500, 2200, 3000, 4000, 5000, 6500, 8000, 10000, 13000}
	servedSLO = slo{P99LimitMS: 20, MaxFailed: 0.001, MaxLateMS: 10}
)

// served call states, shared between the sender and the reader.
const (
	stPending  int32 = iota // request sent, no response yet
	stLive                  // committed and carried
	stRejected              // not committed (rejected, collided or failed)
	stHandoff               // handoff op sent, no response yet
	stDropped               // handoff target did not commit
	stReleased              // release op sent
)

// record is one request line as the client saw it: due, sent and
// received times in nanoseconds since the client's origin, plus what
// the service said about it.
type record struct {
	due, sent int64
	recv      atomic.Int64
	latencyUS int64
	batch     int32
	outcome   int8
	afterTick bool
	phase     int8
}

const (
	outNone int8 = iota
	outCommitted
	outBlocked
	outFailed
)

// wireResponse mirrors the fields of a facs-serve response line the
// client reads.
type wireResponse struct {
	ID        int    `json:"id"`
	Decision  string `json:"decision"`
	Committed bool   `json:"committed"`
	LatencyUS int64  `json:"latency_us"`
	Batch     int    `json:"batch"`
	Error     string `json:"error"`
}

// server is one running facs-serve process.
type server struct {
	cmd         *exec.Cmd
	execAt      time.Time
	addr        string
	metricsAddr string
	stderrDone  chan struct{}
	mu          sync.Mutex
	stderr      []string
}

// startServer execs bin and waits until it listens; it returns with
// both addresses known.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-controller", "scc", "-shards", strconv.Itoa(servedShards),
		"-rings", strconv.Itoa(servedRings), "-capacity", strconv.Itoa(servedCapacity))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	execAt := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start facs-serve: %w", err)
	}
	s := &server{cmd: cmd, execAt: execAt, stderrDone: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(s.stderrDone)
		sc := bufio.NewScanner(pipe)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr = append(s.stderr, line)
			if i := strings.Index(line, "metrics on http://"); i >= 0 {
				s.metricsAddr = strings.TrimSuffix(line[i+len("metrics on http://"):], "/metrics")
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				s.addr = strings.TrimSpace(line[i+len("listening on "):])
			}
			up := s.addr != "" && s.metricsAddr != ""
			s.mu.Unlock()
			if up && !signalled {
				signalled = true
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
		return s, nil
	case <-s.stderrDone:
		_ = s.stop() // the failed start is the error to report
		return nil, fmt.Errorf("facs-serve exited before listening: %s", s.log())
	case <-time.After(20 * time.Second):
		_ = s.stop() // the failed start is the error to report
		return nil, fmt.Errorf("facs-serve did not start listening: %s", s.log())
	}
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.stderr, " | ")
}

// stop asks the server to drain and exit, kills it if it does not, and
// waits until it and its stderr reader have ended.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("facs-serve ignored SIGTERM")
		}
	}
	<-s.stderrDone
	return err
}

// cpu returns the server process's user plus system CPU time from
// /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (s *server) scrape() (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.metricsAddr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// generator makes the seeded request stream: positions near station
// centres, the paper's 60/30/10 class mix, and neighbour cells as
// handoff targets.
type generator struct {
	rng        *rand.Rand
	centres    []facs.Point
	neighbours [][]int
	radius     float64
}

func newGenerator(seed int64) (*generator, error) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: servedRings, CapacityBU: servedCapacity})
	if err != nil {
		return nil, err
	}
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	for _, bs := range netw.Stations() {
		g.centres = append(g.centres, bs.Pos())
	}
	// Neighbouring hex centres are sqrt(3) radii apart; the network's
	// radius is recovered from the closest pair.
	g.radius = math.Inf(1)
	for j := 1; j < len(g.centres); j++ {
		g.radius = math.Min(g.radius, dist(g.centres[0], g.centres[j])/math.Sqrt(3))
	}
	g.neighbours = make([][]int, len(g.centres))
	for i := range g.centres {
		for j := range g.centres {
			if i != j && dist(g.centres[i], g.centres[j]) < 1.9*g.radius {
				g.neighbours[i] = append(g.neighbours[i], j)
			}
		}
	}
	return g, nil
}

func dist(a, b facs.Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// near returns a point within half a radius of station i's centre.
func (g *generator) near(i int) facs.Point {
	r := 0.5 * g.radius * math.Sqrt(g.rng.Float64())
	a := 2 * math.Pi * g.rng.Float64()
	c := g.centres[i]
	return facs.Point{X: c.X + r*math.Cos(a), Y: c.Y + r*math.Sin(a)}
}

func (g *generator) class() string {
	switch u := g.rng.Float64(); {
	case u < 0.6:
		return "text"
	case u < 0.9:
		return "voice"
	default:
		return "video"
	}
}

// client drives one connection in an open loop and records every
// request line it sends.
type client struct {
	conn   net.Conn
	w      *bufio.Writer
	gen    *generator
	origin time.Time

	recs    []record
	states  []atomic.Int32
	station []int32 // the cell each call is carried in, for handoffs

	nextReq     int // next request line's index (its id is index+1)
	nextRelease int // oldest call whose release is not yet settled
	deferred    []int
	sinceTick   int
	tickPending bool
	ticks       int
	handoffs    atomic.Int64 // handoff ops sent
	hoDone      atomic.Int64 // handoff responses received
	hoCommitted atomic.Int64
	outstanding atomic.Int64 // request lines without a response
	decisions   atomic.Int64 // responses carrying a decision
	duplicates  atomic.Int64
	releaseErrs atomic.Int64
	opErrs      atomic.Int64
	strays      atomic.Int64
	readerDone  chan error
	phase       int8
}

func newClient(s *server, gen *generator, capacity int) (*client, error) {
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	c := &client{
		conn: conn, w: bufio.NewWriterSize(conn, 64<<10), gen: gen, origin: time.Now(),
		recs: make([]record, capacity), states: make([]atomic.Int32, capacity),
		station: make([]int32, capacity), readerDone: make(chan error, 1),
	}
	go c.read()
	return c, nil
}

func (c *client) now() int64 { return int64(time.Since(c.origin)) }

// read consumes response lines until the connection closes.
func (c *client) read() {
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		t := c.now()
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			c.strays.Add(1)
			continue
		}
		i := r.ID - 1
		if i < 0 || i >= len(c.recs) {
			c.strays.Add(1)
			continue
		}
		switch st := c.states[i].Load(); st {
		case stPending:
			rec := &c.recs[i]
			rec.latencyUS, rec.batch = r.LatencyUS, int32(r.Batch)
			switch {
			case r.Decision == "":
				rec.outcome = outFailed // shed or bad line
			case r.Committed:
				rec.outcome = outCommitted
			case r.Error != "" && r.Decision != "accept":
				rec.outcome = outFailed // decision error
			default:
				rec.outcome = outBlocked // rejected, or accepted but collided
			}
			if r.Decision != "" {
				c.decisions.Add(1)
			}
			rec.recv.Store(t)
			c.outstanding.Add(-1)
			if rec.outcome == outCommitted {
				c.states[i].Store(stLive)
			} else {
				c.states[i].Store(stRejected)
			}
		case stHandoff:
			if r.Decision != "" {
				c.decisions.Add(1)
			}
			c.hoDone.Add(1)
			if r.Committed {
				c.hoCommitted.Add(1)
				c.states[i].Store(stLive)
			} else {
				if r.Error != "" && r.Decision == "" {
					c.opErrs.Add(1)
				}
				c.states[i].Store(stDropped)
			}
		case stReleased:
			c.releaseErrs.Add(1)
		default:
			if r.Error != "" {
				c.opErrs.Add(1)
			} else {
				c.duplicates.Add(1)
			}
		}
	}
	c.readerDone <- sc.Err()
}

// writeLine appends one NDJSON line to the send buffer.
func (c *client) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.WriteByte('\n')
}

type requestLine struct {
	ID      int     `json:"id"`
	Class   string  `json:"class"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"`
	Speed   float64 `json:"speed"`
	Now     float64 `json:"now"`
}

type opLine struct {
	Op      string   `json:"op"`
	ID      int      `json:"id,omitempty"`
	X       *float64 `json:"x,omitempty"`
	Y       *float64 `json:"y,omitempty"`
	Heading float64  `json:"heading,omitempty"`
	Speed   float64  `json:"speed,omitempty"`
	Now     float64  `json:"now"`
}

// sendOps emits the control ops due before request index i: releases
// of calls whose hold has passed, handoffs of calls at half hold, and
// the periodic tick.
func (c *client) sendOps(i int) error {
	now := float64(i) * logicalStep
	// Releases settle in call order; a call still waiting for its
	// response or its handoff's is deferred, not skipped.
	var keep []int
	for _, j := range c.deferred {
		done, err := c.settle(j, now)
		if err != nil {
			return err
		}
		if !done {
			keep = append(keep, j)
		}
	}
	c.deferred = keep
	for ; c.nextRelease <= i-holdRequests; c.nextRelease++ {
		done, err := c.settle(c.nextRelease, now)
		if err != nil {
			return err
		}
		if !done {
			c.deferred = append(c.deferred, c.nextRelease)
		}
	}
	if j := i - holdRequests/2; j >= 0 && mix64(uint64(j)^0x5eed)%handoffEvery == 0 &&
		c.states[j].CompareAndSwap(stLive, stHandoff) {
		nb := c.gen.neighbours[c.station[j]]
		to := nb[c.gen.rng.Intn(len(nb))]
		p := c.gen.near(to)
		c.station[j] = int32(to)
		c.handoffs.Add(1)
		if err := c.writeLine(opLine{Op: "handoff", ID: j + 1, X: &p.X, Y: &p.Y,
			Heading: 360 * c.gen.rng.Float64(), Speed: 10 + 70*c.gen.rng.Float64(), Now: now}); err != nil {
			return err
		}
	}
	if c.sinceTick >= tickEvery {
		c.sinceTick = 0
		c.tickPending = true
		c.ticks++
		if err := c.writeLine(opLine{Op: "tick", Now: now}); err != nil {
			return err
		}
	}
	return nil
}

// settle releases call j if it is live; done reports that j needs no
// further attention.
func (c *client) settle(j int, now float64) (bool, error) {
	switch c.states[j].Load() {
	case stPending, stHandoff:
		return false, nil
	case stLive:
		c.states[j].Store(stReleased)
		return true, c.writeLine(opLine{Op: "release", ID: j + 1, Now: now})
	default:
		return true, nil
	}
}

// sendRequest emits the next request line, due at due. With flush the
// line goes to the socket at once and its sent time is when it did;
// otherwise it waits in the buffer.
func (c *client) sendRequest(due int64, flush bool) error {
	i := c.nextReq
	if i >= len(c.recs) {
		return errors.New("request capacity exhausted")
	}
	if err := c.sendOps(i); err != nil {
		return err
	}
	st := c.gen.rng.Intn(len(c.gen.centres))
	p := c.gen.near(st)
	c.station[i] = int32(st)
	line := requestLine{ID: i + 1, Class: c.gen.class(), X: p.X, Y: p.Y,
		Heading: 360 * c.gen.rng.Float64(), Speed: 10 + 70*c.gen.rng.Float64(),
		Now: float64(i) * logicalStep}
	rec := &c.recs[i]
	rec.due, rec.phase, rec.afterTick = due, c.phase, c.tickPending
	c.tickPending = false
	c.sinceTick++
	c.nextReq++
	c.outstanding.Add(1)
	if err := c.writeLine(line); err != nil {
		return err
	}
	if flush {
		if err := c.w.Flush(); err != nil {
			return err
		}
	}
	rec.sent = c.now()
	return nil
}

// paced sends n request lines at rate per second, each due on the
// schedule whether or not the previous ones were answered. An
// abortable run stops early, reporting false, once the backlog passes
// abortOutstanding.
func (c *client) paced(rate float64, n int, phase int8, abortable bool) (first int, ok bool, err error) {
	c.phase = phase
	first = c.nextReq
	start := c.now()
	period := float64(time.Second) / rate
	for k := 0; k < n; k++ {
		due := start + int64(float64(k)*period)
		if wait := due - c.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if abortable && c.outstanding.Load() > abortOutstanding {
			return first, false, nil
		}
		if err := c.sendRequest(due, true); err != nil {
			return first, false, err
		}
	}
	return first, true, nil
}

// windowed sends n request lines as fast as the window allows; each is
// due when it is sent.
func (c *client) windowed(n int, phase int8) (first int, err error) {
	c.phase = phase
	first = c.nextReq
	for k := 0; k < n; k++ {
		for c.outstanding.Load() >= window {
			if err := c.w.Flush(); err != nil {
				return first, err
			}
			time.Sleep(20 * time.Microsecond)
		}
		if err := c.sendRequest(c.now(), false); err != nil {
			return first, err
		}
	}
	return first, c.w.Flush()
}

// drain waits until every request sent has its response, or timeout.
func (c *client) drain(timeout time.Duration) bool {
	return waitUntil(func() bool { return c.outstanding.Load() == 0 }, timeout)
}

// settleHandoffs waits until every handoff op has its response.
func (c *client) settleHandoffs(timeout time.Duration) bool {
	return waitUntil(func() bool { return c.hoDone.Load() >= c.handoffs.Load() }, timeout)
}

// waitUntil polls done until it holds or timeout passes.
func waitUntil(done func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// close shuts the connection and waits for the reader.
func (c *client) close() error {
	if err := c.w.Flush(); err != nil {
		c.conn.Close()
		<-c.readerDone
		return err
	}
	if tc, ok := c.conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	select {
	case err := <-c.readerDone:
		c.conn.Close()
		return err
	case <-time.After(10 * time.Second):
		c.conn.Close()
		return <-c.readerDone
	}
}

// phaseStats summarises the request lines [lo, hi).
type phaseStats struct {
	sent, failed       int
	lat, late, serveUS []float64
	batchSum           float64
	tickStall          []float64
	tailP50            float64
}

func (c *client) stats(lo, hi int) phaseStats {
	var p phaseStats
	p.sent = hi - lo
	for i := lo; i < hi; i++ {
		r := &c.recs[i]
		recv := r.recv.Load()
		if recv == 0 || r.outcome == outFailed {
			p.failed++
			p.lat = append(p.lat, math.Inf(1)) // a failure misses every limit
			continue
		}
		lat, late := dueLatency(r.due, r.sent, recv)
		p.lat = append(p.lat, float64(lat)/1e6)
		p.late = append(p.late, float64(late)/1e6)
		p.serveUS = append(p.serveUS, float64(r.latencyUS))
		p.batchSum += float64(r.batch)
		if r.afterTick {
			p.tickStall = append(p.tickStall, float64(lat)/1e6)
		}
	}
	var tail []float64
	for i := lo + 3*(hi-lo)/4; i < hi; i++ {
		if recv := c.recs[i].recv.Load(); recv == 0 || c.recs[i].outcome == outFailed {
			tail = append(tail, math.Inf(1))
		} else {
			tail = append(tail, float64(recv-c.recs[i].due)/1e6)
		}
	}
	p.tailP50 = median(tail)
	return p
}

func (p phaseStats) rung(rate float64) rung {
	lat := sortedCopy(p.lat)
	p50, _ := percentile(lat, 0.5)
	p99, valid := percentile(lat, 0.99)
	late, _ := percentile(sortedCopy(p.late), 0.99)
	return rung{Rate: rate, Sent: p.sent, P50MS: p50, P99MS: p99, P99Valid: valid,
		Failed: p.failed, TailP50MS: p.tailP50, LateMS: late}
}

// firstResponse sends one request on a connection of its own, waits
// for its decision and releases the call again. It returns the time
// from the server's exec to that decision: the served set-up time.
func (s *server) firstResponse(gen *generator) (time.Duration, error) {
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, err
	}
	p := gen.centres[0]
	line, err := json.Marshal(requestLine{ID: 1, Class: "text", X: p.X, Y: p.Y, Speed: 30})
	if err != nil {
		return 0, err
	}
	if _, err := conn.Write(append(line, '\n')); err != nil {
		return 0, err
	}
	rd := bufio.NewReader(conn)
	resp, err := rd.ReadBytes('\n')
	if err != nil {
		return 0, fmt.Errorf("first response: %w", err)
	}
	took := time.Since(s.execAt)
	var r wireResponse
	if err := json.Unmarshal(resp, &r); err != nil || r.Decision == "" {
		return 0, fmt.Errorf("first response %q: %v", resp, err)
	}
	if r.Committed {
		if _, err := conn.Write([]byte(`{"op":"release","id":1}` + "\n")); err != nil {
			return 0, err
		}
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	// The read ends at the server's close; only extra lines matter.
	if rest, _ := io.ReadAll(rd); len(rest) > 0 {
		return 0, fmt.Errorf("unexpected lines after the probe: %q", rest)
	}
	return took, nil
}

// Phases of the served run, recorded on each request line.
const (
	phasePrefill int8 = iota
	phaseLow
	phaseHigh
	phaseSaturation
	phaseLadder // ladder rung k is phaseLadder+k
)

// runServed measures the tcp-scc-sharded workload.
func runServed(o options) (*report, error) {
	if o.serveBin == "" {
		return nil, errors.New("tcp workload needs --serve-bin")
	}
	gen, err := newGenerator(o.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < setupStarts-1; k++ {
		s, err := startServer(o.serveBin)
		if err != nil {
			return nil, err
		}
		d, err := s.firstResponse(gen)
		if serr := s.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stop facs-serve: %w", serr)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	s, err := startServer(o.serveBin)
	if err != nil {
		return nil, err
	}
	rep, setup, err := driveServer(s, gen, o)
	if serr := s.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop facs-serve: %w (%s)", serr, s.log())
	}
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = median(append(setups, setup.Seconds()))
	rep.info["setup_samples"] = setupStarts
	return rep, nil
}

// driveServer runs the phases against one server: prefill to the
// steady live-call population, the low and high fixed rates, the rate
// ladder up to its first failing rung, and a window-bounded saturation
// burst.
func driveServer(s *server, gen *generator, o options) (*report, time.Duration, error) {
	setup, err := s.firstResponse(gen)
	if err != nil {
		return nil, 0, err
	}
	rep := newReport()
	lowN := int(lowRate * lowShare * float64(o.seconds))
	highN := int(highRate * highShare * float64(o.seconds))
	saturation := saturationPerSec * o.seconds
	capacity := holdRequests + lowN + highN + rungSize*len(ladder) + saturation
	c, err := newClient(s, gen, capacity)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*report, time.Duration, error) {
		c.conn.Close()
		<-c.readerDone
		return nil, 0, err
	}
	if _, err := c.windowed(holdRequests, phasePrefill); err != nil {
		return fail(err)
	}
	if !c.drain(10 * time.Second) {
		return fail(errors.New("prefill did not drain"))
	}

	// The fixed rates. Counters bracket them: client-side handoff
	// outcomes and the server's own /metrics.
	c.settleHandoffs(5 * time.Second)
	ho0, hoc0 := c.hoDone.Load(), c.hoCommitted.Load()
	m0, err := s.scrape()
	if err != nil {
		return fail(err)
	}
	lowFirst, _, err := c.paced(lowRate, lowN, phaseLow, false)
	if err != nil {
		return fail(err)
	}
	c.drain(10 * time.Second)
	highFirst, _, err := c.paced(highRate, highN, phaseHigh, false)
	if err != nil {
		return fail(err)
	}
	c.drain(10 * time.Second)
	mHigh, err := s.scrape()
	if err != nil {
		return fail(err)
	}
	fixedEnd := c.nextReq

	low := c.stats(lowFirst, highFirst)
	high := c.stats(highFirst, fixedEnd)

	// The ladder, ascending until the first rung that misses the
	// objective.
	var rungs []rung
	excludedLo, excludedHi := 0, 0
	for k, rate := range ladder {
		first, finished, err := c.paced(rate, rungSize, phaseLadder+int8(k), true)
		if err != nil {
			return fail(err)
		}
		c.drain(10 * time.Second)
		r := c.stats(first, c.nextReq).rung(rate)
		if !finished {
			r.TailP50MS = math.Inf(1) // aborted: the backlog grew
		}
		rungs = append(rungs, r)
		if servedSLO.judge(r) != rungPass {
			excludedLo, excludedHi = first, c.nextReq
			break
		}
	}
	lr := selectLadder(rungs, servedSLO)

	// Saturation: as fast as the window allows, in equal sub-windows
	// drained one by one, so the server's CPU and the client's count of
	// decisions bracket each; the medians over sub-windows shrug off a
	// stall.
	var satRates, satCPU []float64
	drained := true
	for k := 0; k < saturationWindows; k++ {
		cpuA, err := s.cpu()
		if err != nil {
			return fail(err)
		}
		decA := c.decisions.Load()
		t0 := c.now()
		if _, err := c.windowed(saturation/saturationWindows, phaseSaturation); err != nil {
			return fail(err)
		}
		drained = c.drain(10*time.Second) && drained
		wall := float64(c.now()-t0) / 1e9
		cpuB, err := s.cpu()
		if err != nil {
			return fail(err)
		}
		decided := float64(c.decisions.Load() - decA)
		satRates = append(satRates, decided/wall)
		satCPU = append(satCPU, float64((cpuB-cpuA).Nanoseconds())/decided)
	}
	c.settleHandoffs(5 * time.Second)
	ho1, hoc1 := c.hoDone.Load(), c.hoCommitted.Load()
	if err := c.close(); err != nil {
		return nil, 0, fmt.Errorf("connection: %w", err)
	}
	mEnd, err := s.scrape()
	if err != nil {
		return nil, 0, err
	}

	// Totals over every request line outside the rung that broke the
	// ladder: overload failures are how that rung fails, not errors.
	sent, failed, decided, blocked := 0, 0, 0, 0
	for i := 0; i < c.nextReq; i++ {
		if i >= excludedLo && i < excludedHi {
			continue
		}
		sent++
		switch r := &c.recs[i]; {
		case r.recv.Load() == 0 || r.outcome == outFailed:
			failed++
		case i < lowFirst:
		case r.outcome == outBlocked:
			decided++
			blocked++
		default:
			decided++
		}
	}
	missing := 0
	for i := 0; i < c.nextReq; i++ {
		if c.recs[i].recv.Load() == 0 {
			missing++
		}
	}
	rep.attempted, rep.failed = sent, failed
	// The probe request on its own connection is one more decision.
	wantDecisions := float64(c.decisions.Load() + 1)
	rep.check("one_response_per_request", missing == 0 && c.duplicates.Load() == 0 && c.strays.Load() == 0 && drained)
	rep.check("no_release_or_op_errors", c.releaseErrs.Load() == 0 && c.opErrs.Load() == 0)
	got, ok := mEnd["facs_decisions_total"]
	if ok {
		rep.check("metrics_decisions_reconcile", got == wantDecisions)
	} else {
		rep.info["metrics_missing"] = []string{"facs_decisions_total"}
	}

	rep.values["decisions_per_sec"] = median(satRates)
	rep.values["cpu_ns_per_decision"] = median(satCPU)
	rep.values["new_block_ratio"] = float64(blocked) / float64(decided)
	rep.values["handoff_success_ratio"] = float64(hoc1-hoc0) / float64(ho1-ho0)
	rep.values["ok_ratio"] = 1 - float64(failed)/float64(sent)

	if o.trace {
		if err := servedLayers(c, o, rep, low, high, lr, m0, mHigh, lowFirst, fixedEnd); err != nil {
			return nil, 0, err
		}
	}
	rep.info["rates"] = map[string]any{"low": lowRate, "high": highRate, "ladder": ladder,
		"rung_requests": rungSize, "low_requests": lowN, "high_requests": highN, "saturation_requests": saturation}
	rep.info["slo"] = servedSLO
	rep.info["rungs"] = rungs
	rep.info["ladder"] = lr
	rep.info["fixed"] = map[string]any{"low": low.rung(lowRate), "high": high.rung(highRate)}
	rep.info["live_calls"] = mHigh["facs_ledger_active_calls"]
	rep.info["fixed_rate_counters"] = map[string]float64{
		"decisions":     mHigh["facs_decisions_total"] - m0["facs_decisions_total"],
		"scc_fallbacks": mHigh["facs_ledger_fallbacks_total"] - m0["facs_ledger_fallbacks_total"],
		"scc_rebuilds":  mHigh["facs_ledger_rebuilds_total"] - m0["facs_ledger_rebuilds_total"],
	}
	rep.info["saturation"] = map[string]any{"rates": satRates, "cpu_ns_per_decision": satCPU}
	rep.info["hold_requests"] = holdRequests
	rep.info["deployment"] = map[string]any{"controller": "scc", "shards": servedShards, "rings": servedRings,
		"cells": len(gen.centres), "capacity_bu": servedCapacity, "tick_every": tickEvery, "handoff_every": handoffEvery}
	rep.info["counts"] = map[string]any{"request_lines": c.nextReq, "handoffs": c.handoffs.Load(), "ticks": c.ticks,
		"decisions_client": wantDecisions, "decisions_metrics": got, "missing": missing, "failed": failed}
	return rep, setup, nil
}

// servedLayers fills the per-layer metrics of the traced served run
// from the client's spans, the response fields and /metrics deltas over
// the fixed rates, and dumps the spans. A /metrics counter that is
// absent is left unmeasured, never fatal.
func servedLayers(c *client, o options, rep *report, low, high phaseStats, lr ladderResult,
	m0, m1 map[string]float64, lo, hi int) error {
	lowR, highR := low.rung(lowRate), high.rung(highRate)
	rep.values["low.p50_ms"], rep.values["low.p99_ms"] = lowR.P50MS, lowR.P99MS
	rep.values["high.p50_ms"], rep.values["high.p99_ms"] = highR.P50MS, highR.P99MS
	rep.values["slo_rate"] = lr.Rate
	rep.values["gen.late_ms"] = highR.LateMS
	serveUS := sortedCopy(high.serveUS)
	rep.values["serve.latency_p50_us"], _ = percentile(serveUS, 0.5)
	rep.values["serve.latency_p99_us"], _ = percentile(serveUS, 0.99)
	rep.values["serve.requests_per_batch"] = high.batchSum / float64(len(high.serveUS))
	if stalls := append(append([]float64(nil), low.tickStall...), high.tickStall...); len(stalls) > 0 {
		rep.values["shard.tick_stall_ms"] = median(stalls)
	}

	// Spans: one per fixed-rate phase, one per request line (sent to
	// received) under it, and the service's own latency as the
	// request's child, ending when the response arrived.
	tr := newTracer(2*(hi-lo) + 2)
	var wire []float64
	for _, ph := range []int8{phaseLow, phaseHigh} {
		root := span{Name: "rung-low", Start: math.MaxInt64}
		if ph == phaseHigh {
			root.Name = "rung-high"
		}
		rootID := tr.add(root)
		for i := lo; i < hi; i++ {
			r := &c.recs[i]
			recv := r.recv.Load()
			if r.phase != ph || recv == 0 || r.outcome == outFailed {
				continue
			}
			rs := &tr.spans[rootID-1]
			rs.Start, rs.End = min(rs.Start, r.due), max(rs.End, recv)
			rs.Requests++
			req := span{Parent: rootID, Ref: int64(i + 1), Name: "request", Start: r.sent, End: recv, Requests: 1}
			reqID := tr.add(req)
			svc := span{Parent: reqID, Ref: int64(i + 1), Name: "serve", Start: recv - r.latencyUS*1000, End: recv, Requests: r.batch}
			tr.add(svc)
			if ph == phaseHigh {
				wire = append(wire, float64(selfTime(interval{req.Start, req.End}, []interval{{svc.Start, svc.End}}))/1e3)
			}
		}
	}
	rep.values["wire.overhead_us"] = median(wire)

	delta := func(name string) (float64, bool) {
		a, okA := m0[name]
		b, okB := m1[name]
		return b - a, okA && okB
	}
	ticks := 0
	for i := lo; i < hi; i++ {
		if c.recs[i].afterTick {
			ticks++
		}
	}
	if g, ok := delta("facs_ghost_rows_total"); ok && ticks > 0 {
		rep.values["shard.ghost_rows_per_tick"] = g / float64(ticks)
	}
	hand, okH := delta("facs_handoffs_total")
	drops, okD := delta("facs_handoff_drops_total")
	if okH && okD && hand > 0 {
		rep.values["shard.handoff_commit_ratio"] = 1 - drops/hand
	}
	dec, okDec := delta("facs_decisions_total")
	if fb, ok := delta("facs_ledger_fallbacks_total"); ok && okDec && dec > 0 {
		rep.values["scc.fallbacks_per_decision"] = fb / dec
	}
	if rb, ok := delta("facs_ledger_rebuilds_total"); ok {
		rep.values["scc.rebuilds"] = rb
	}
	if ac, ok := m1["facs_ledger_active_calls"]; ok {
		rep.values["scc.active_calls"] = ac
	}
	path, err := tr.write(o.out, "spans-tcp-scc-sharded.tsv")
	if err != nil {
		return err
	}
	rep.info["spans_file"] = path
	rep.info["spans"] = len(tr.spans)
	return nil
}
