package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/gps"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	// DefaultMaxBatch is the micro-batch size cap.
	DefaultMaxBatch = 64
	// DefaultMaxDelay is how long the batcher waits for more requests
	// after the first pending one before deciding a short batch.
	DefaultMaxDelay = 200 * time.Microsecond
)

// ErrClosed is returned by Submit/SubmitAll/ops after Close.
var ErrClosed = errors.New("serve: service is closed")

// Config parameterises a Service.
type Config struct {
	// Controller renders the admission decisions. Controllers with a
	// native batch path (cac.BatchController) are amortised through
	// cac.DecideAll; any other controller is decided sequentially
	// inside the loop with identical outcomes. Required.
	Controller cac.Controller

	// MaxBatch caps how many requests one DecideBatchInto call may carry
	// (default DefaultMaxBatch). Waves larger than MaxBatch are split
	// into deterministic MaxBatch-sized chunks.
	MaxBatch int

	// MaxDelay bounds how long the first pending request may wait for
	// the batch to fill (default DefaultMaxDelay). Zero after defaults
	// are applied is impossible; a negative value selects greedy mode:
	// never wait, batch only what is already queued.
	MaxDelay time.Duration

	// Queue is the intake channel capacity (default 4 x MaxBatch).
	// Submitters block once it is full, providing natural backpressure.
	Queue int

	// Commit makes the service the owner of station state: an accepted
	// request is immediately allocated on its station (cell.Admit) and
	// observers (cac.Observer) are notified, before any later request
	// or op is processed; Release deallocates. Without Commit the
	// service never mutates stations — decisions are rendered against
	// whatever state the caller maintains, and arbitrary micro-batch
	// boundaries provably cannot change any outcome.
	Commit bool
}

// Response is the outcome of one streamed admission request.
type Response struct {
	// Decision is the controller's verdict.
	Decision cac.Decision
	// Committed reports that the service allocated the call on its
	// station (Commit mode only). An accepted request can fail to
	// commit when earlier accepts in its own micro-batch — decided
	// against the same snapshot, per the BatchController contract — already
	// claimed the remaining bandwidth; Err then carries the cause.
	Committed bool
	// Handle names the committed call at its station (zero unless
	// Committed). Holders pass it back to Release, or to the sharded
	// engine's handoff protocol, to reach the call without an ID lookup.
	Handle cell.Handle
	// Err is the decision or commit error, if any. A decision error
	// forces Decision to Reject.
	Err error
	// Latency is the time from enqueue to decided (including commit).
	Latency time.Duration
	// Batch is the size of the micro-batch that carried the request.
	Batch int
}

// LatencyBuckets is the number of power-of-two histogram buckets in
// Stats.LatencyHist: bucket i counts latencies in [2^(i-1), 2^i)
// nanoseconds (bucket 0 holds sub-nanosecond measurements), which spans
// every representable time.Duration.
const LatencyBuckets = 64

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Submitted counts requests accepted into the intake queue;
	// Decided counts requests answered (equal once drained).
	Submitted, Decided int64
	// Accepted / Rejected split Decided by outcome; Committed counts
	// accepted requests actually allocated (Commit mode).
	Accepted, Rejected, Committed int64
	// Batches counts DecideBatchInto calls; MaxBatch is the largest batch
	// realised; Waves counts SubmitAll calls.
	Batches, Waves int64
	MaxBatch       int
	// Ops counts serialized control operations (ticks, releases, state
	// updates, Do barriers); Ticks the OnTick deliveries among them.
	Ops, Ticks int64
	// CommitErrs counts accepted-but-uncommitted requests; OpErrs
	// counts failed releases.
	CommitErrs, OpErrs int64
	// AvgLatency / MaxLatency aggregate Response.Latency over every
	// decided request.
	AvgLatency, MaxLatency time.Duration
	// LatencyHist is the per-request latency histogram over
	// power-of-two buckets (see LatencyBuckets): the source for the
	// LatencyQuantile / P50Latency / P99Latency percentiles. A wave's
	// requests complete together, so its latency weighs once per
	// request, exactly like AvgLatency. Histograms from several
	// services add field-wise, which is how the sharded engine
	// aggregates engine-level percentiles.
	LatencyHist [LatencyBuckets]int64
}

// Merge returns the field-wise aggregation of two snapshots, the merge
// the sharded engine applies across its per-shard services: counters
// sum, MaxBatch/MaxLatency take the maximum, AvgLatency is weighted by
// decided requests, and the latency histograms add bucket-wise (so the
// merged LatencyQuantile estimates hold engine-wide).
func (s Stats) Merge(o Stats) Stats {
	latSum := int64(s.AvgLatency)*s.Decided + int64(o.AvgLatency)*o.Decided
	s.Submitted += o.Submitted
	s.Decided += o.Decided
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Committed += o.Committed
	s.Batches += o.Batches
	s.Waves += o.Waves
	s.Ops += o.Ops
	s.Ticks += o.Ticks
	s.CommitErrs += o.CommitErrs
	s.OpErrs += o.OpErrs
	if o.MaxBatch > s.MaxBatch {
		s.MaxBatch = o.MaxBatch
	}
	if o.MaxLatency > s.MaxLatency {
		s.MaxLatency = o.MaxLatency
	}
	if s.Decided > 0 {
		s.AvgLatency = time.Duration(latSum / s.Decided)
	}
	for b := range o.LatencyHist {
		s.LatencyHist[b] += o.LatencyHist[b]
	}
	return s
}

// LatencyQuantile returns the latency at quantile q in [0, 1],
// estimated from the power-of-two histogram by linear interpolation
// inside the covering bucket (so the estimate is within 2x of the true
// order statistic). It returns 0 when nothing has been decided.
func (s Stats) LatencyQuantile(q float64) time.Duration {
	var total int64
	for _, n := range s.LatencyHist {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.LatencyHist {
		if n == 0 {
			continue
		}
		seen += n
		if seen < rank {
			continue
		}
		lo := int64(0)
		hi := int64(1) // bucket 0: [0, 1) ns
		if i > 0 {
			lo = int64(1) << (i - 1)
			if i == LatencyBuckets-1 {
				// The top bucket's upper edge 2^63 overflows int64;
				// interpolate towards the widest representable latency
				// instead of wrapping negative (which put the estimate
				// below the bucket floor).
				hi = math.MaxInt64
			} else {
				hi = lo * 2
			}
		}
		// Interpolate by the rank's position among this bucket's counts,
		// clamped to the exact maximum (sparse buckets can otherwise
		// interpolate past it). The float comparison guards the int64
		// conversion: in the top bucket the interpolant can round up to
		// 2^63, one past MaxInt64.
		est := time.Duration(hi)
		if f := float64(lo) + float64(rank-(seen-n))/float64(n)*float64(hi-lo); f < float64(hi) {
			est = time.Duration(f)
		}
		if s.MaxLatency > 0 && est > s.MaxLatency {
			est = s.MaxLatency
		}
		return est
	}
	return s.MaxLatency
}

// P50Latency returns the median per-request latency.
func (s Stats) P50Latency() time.Duration { return s.LatencyQuantile(0.50) }

// P99Latency returns the 99th-percentile per-request latency.
func (s Stats) P99Latency() time.Duration { return s.LatencyQuantile(0.99) }

// AcceptRate returns Accepted/Decided in [0, 1] (0 when idle).
func (s Stats) AcceptRate() float64 {
	if s.Decided == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Decided)
}

// AvgBatch returns the mean realised micro-batch size.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Decided) / float64(s.Batches)
}

// String renders a one-line operator summary.
func (s Stats) String() string {
	return fmt.Sprintf("decided %d (%.1f%% accept) in %d batches (avg %.1f, max %d), latency avg %s p50 %s p99 %s max %s, ops %d",
		s.Decided, 100*s.AcceptRate(), s.Batches, s.AvgBatch(), s.MaxBatch,
		s.AvgLatency, s.P50Latency(), s.P99Latency(), s.MaxLatency, s.Ops)
}

// pending is one in-flight single request.
type pending struct {
	req   cac.Request
	enq   time.Time
	reply chan Response
}

// wave is one SubmitAll / SubmitAllInto call: a caller-defined batch
// that is decided as a unit, split only at deterministic MaxBatch
// boundaries. out is the response buffer the loop fills (caller-owned
// for SubmitAllInto, allocated by SubmitAll).
type wave struct {
	reqs  []cac.Request
	out   []Response
	enq   time.Time
	reply chan []Response
}

// op is one serialized control operation.
type op struct {
	fn   func(ctrl cac.Controller)
	done chan struct{} // non-nil for synchronous ops
}

// item is one intake-queue entry; exactly one field is set.
type item struct {
	single *pending
	wave   *wave
	op     *op
}

// Service is a streaming admission front end over an admission
// controller: concurrent submitters enqueue requests, a single loop
// goroutine coalesces them into micro-batches (bounded by MaxBatch and
// MaxDelay), decides each batch through cac.DecideAll, and fans the
// responses back with per-request latency. Control operations — ticks,
// releases, kinematic updates — travel the same queue and execute in
// the same goroutine, strictly ordered against decisions, so stateful
// controllers (e.g. the SCC demand ledger) keep their invariants
// without any locking of their own.
type Service struct {
	cfg  Config
	in   chan item
	done chan struct{}

	mu     sync.RWMutex // guards closed against in-flight sends
	closed bool

	// Loop-local scratch, reused across micro-batches.
	reqScratch  []cac.Request
	pendScratch []*pending
	decScratch  []cac.Decision

	submitted  atomic.Int64
	decided    atomic.Int64
	accepted   atomic.Int64
	rejected   atomic.Int64
	committed  atomic.Int64
	batches    atomic.Int64
	waves      atomic.Int64
	ops        atomic.Int64
	ticks      atomic.Int64
	commitErrs atomic.Int64
	opErrs     atomic.Int64
	maxBatch   atomic.Int64
	latSumNs   atomic.Int64
	latMaxNs   atomic.Int64
	latHist    [LatencyBuckets]atomic.Int64
}

// New validates the configuration, applies defaults and starts the
// decision loop. The returned service is live until Close.
func New(cfg Config) (*Service, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("serve: config needs a controller")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("serve: MaxBatch must be >= 1, got %d", cfg.MaxBatch)
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	if cfg.Queue == 0 {
		cfg.Queue = 4 * cfg.MaxBatch
	}
	if cfg.Queue < 1 {
		return nil, fmt.Errorf("serve: Queue must be >= 1, got %d", cfg.Queue)
	}
	s := &Service{
		cfg:         cfg,
		in:          make(chan item, cfg.Queue),
		done:        make(chan struct{}),
		reqScratch:  make([]cac.Request, 0, cfg.MaxBatch),
		pendScratch: make([]*pending, 0, cfg.MaxBatch),
		decScratch:  make([]cac.Decision, cfg.MaxBatch),
	}
	go s.loop()
	return s, nil
}

// Controller returns the wrapped controller. Reading mutable controller
// state concurrently with the loop is racy; use Do for a serialized
// view.
func (s *Service) Controller() cac.Controller { return s.cfg.Controller }

// send enqueues an item unless the service is closed. The read lock is
// held across the channel send so Close cannot close the intake channel
// under an in-flight submitter.
func (s *Service) send(it item) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.in <- it
	return nil
}

// Submit enqueues one request and blocks until its decision. It is safe
// for any number of concurrent callers; requests from one goroutine are
// decided in submission order. The decision (or error) is carried in
// the Response.
func (s *Service) Submit(req cac.Request) Response {
	return <-s.SubmitAsync(req)
}

// SubmitAsync enqueues one request and returns immediately with a
// buffered channel that will carry exactly one Response. It lets a
// single producer keep the intake queue full (and the micro-batcher
// well fed) without one blocked round trip per request; the enqueue
// order — and therefore the decision order — is the call order. After
// Close the response carries ErrClosed.
func (s *Service) SubmitAsync(req cac.Request) <-chan Response {
	p := &pending{req: req, enq: time.Now(), reply: make(chan Response, 1)} //facs:wallclock latency stamp; feeds the latency gauges only
	s.submitted.Add(1)
	if err := s.send(item{single: p}); err != nil {
		s.submitted.Add(-1)
		p.reply <- Response{Decision: cac.Reject, Err: err}
	}
	return p.reply
}

// SubmitAll enqueues a caller-defined batch (a "wave") and blocks until
// every decision is rendered, returning responses in request order. A
// wave is decided as a unit: it never coalesces with other traffic, and
// it is split only at MaxBatch boundaries — deterministically, never by
// timing — so closed-loop drivers that need reproducible outcomes
// stream waves. In Commit mode, accepted calls of one chunk are
// allocated before the next chunk is decided.
func (s *Service) SubmitAll(reqs []cac.Request) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]Response, len(reqs))
	if err := s.SubmitAllInto(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitAllInto is SubmitAll with a caller-owned response buffer: the
// wave's responses are written into out[:len(reqs)] instead of a fresh
// slice, so closed-loop drivers (the sharded engine's scatter path, the
// metropolis wave loop) reuse one buffer across millions of waves. out
// must hold at least len(reqs) entries; outcomes are identical to
// SubmitAll in every respect. The buffer must not be read until
// SubmitAllInto returns, and is safe to reuse immediately afterwards.
//
//facs:hotpath
func (s *Service) SubmitAllInto(reqs []cac.Request, out []Response) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(out) < len(reqs) {
		return fmt.Errorf("serve: response buffer too short: %d requests, %d slots", len(reqs), len(out)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	enq := time.Now()                                                                       //facs:wallclock latency stamp; feeds the latency gauges only
	w := &wave{reqs: reqs, out: out[:len(reqs)], enq: enq, reply: make(chan []Response, 1)} //facs:alloc one wave header and reply channel per batch, not per request; the per-request path is alloc-free
	s.submitted.Add(int64(len(reqs)))
	if err := s.send(item{wave: w}); err != nil {
		s.submitted.Add(int64(-len(reqs)))
		return err
	}
	<-w.reply
	return nil
}

// Do runs fn inside the decision loop, after every previously enqueued
// request and op has completed, and blocks until fn returns. It is the
// barrier primitive: a serialized, race-free view of the controller and
// of any station state the service commits to.
func (s *Service) Do(fn func(ctrl cac.Controller)) error {
	o := &op{fn: fn, done: make(chan struct{})}
	if err := s.send(item{op: o}); err != nil {
		return err
	}
	<-o.done
	return nil
}

// Flush blocks until everything enqueued before it has been decided.
func (s *Service) Flush() error {
	return s.Do(func(cac.Controller) {})
}

// Tick delivers cac.Ticker.OnTick(now) to the controller, serialized
// after everything already enqueued. It is asynchronous; a controller
// without time-driven state makes it a cheap no-op.
func (s *Service) Tick(now float64) error {
	t, ok := s.cfg.Controller.(cac.Ticker)
	if !ok {
		return nil
	}
	return s.send(item{op: &op{fn: func(cac.Controller) {
		t.OnTick(now)
		s.ticks.Add(1)
	}}})
}

// Release retires a carried call: in Commit mode the call h names
// (Response.Handle) is released on the station — a stale or foreign
// handle, or one naming a call other than callID, releases nothing and
// counts into Stats.OpErrs — and observer controllers are notified of
// callID either way. Asynchronous, ordered after everything already
// enqueued.
func (s *Service) Release(callID int, h cell.Handle, station *cell.BaseStation, now float64) error {
	return s.send(item{op: &op{fn: func(ctrl cac.Controller) {
		if s.cfg.Commit {
			if c, ok := station.Call(h); !ok || c.ID != callID {
				s.opErrs.Add(1)
			} else if _, err := station.Release(h); err != nil {
				s.opErrs.Add(1)
			}
		}
		if obs, ok := ctrl.(cac.Observer); ok {
			obs.OnRelease(callID, station, now)
		}
	}}})
}

// UpdateState delivers a fresh kinematic estimate for a carried call to
// mobility-tracking controllers (cac.StateUpdater). Asynchronous,
// ordered after everything already enqueued.
func (s *Service) UpdateState(callID int, est gps.Estimate, station *cell.BaseStation) error {
	u, ok := s.cfg.Controller.(cac.StateUpdater)
	if !ok {
		return nil
	}
	return s.send(item{op: &op{fn: func(cac.Controller) {
		u.OnStateUpdate(callID, est, station)
	}}})
}

// Close stops intake, waits for the queue to drain and the loop to
// exit, then returns. Submissions racing with Close either complete
// normally or return ErrClosed; Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.in)
	}
	s.mu.Unlock()
	<-s.done
	return nil
}

// Stats returns a consistent-enough snapshot of the counters: each
// field is atomically read, and after Flush (or Close) the snapshot is
// exact.
func (s *Service) Stats() Stats {
	st := Stats{
		Submitted:  s.submitted.Load(),
		Decided:    s.decided.Load(),
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Committed:  s.committed.Load(),
		Batches:    s.batches.Load(),
		Waves:      s.waves.Load(),
		MaxBatch:   int(s.maxBatch.Load()),
		Ops:        s.ops.Load(),
		Ticks:      s.ticks.Load(),
		CommitErrs: s.commitErrs.Load(),
		OpErrs:     s.opErrs.Load(),
		AvgLatency: time.Duration(safeDiv(s.latSumNs.Load(), s.decided.Load())),
		MaxLatency: time.Duration(s.latMaxNs.Load()),
	}
	for i := range s.latHist {
		st.LatencyHist[i] = s.latHist[i].Load()
	}
	return st
}

func safeDiv(sum, n int64) int64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

// loop is the decision goroutine: the only place the controller is
// invoked and (in Commit mode) stations are mutated.
func (s *Service) loop() {
	defer close(s.done)
	for it := range s.in {
		for {
			var next *item
			switch {
			case it.single != nil:
				next = s.coalesce(it.single)
			case it.wave != nil:
				s.decideWave(it.wave)
			case it.op != nil:
				s.runOp(it.op)
			}
			if next == nil {
				break
			}
			it = *next
		}
	}
}

// coalesce grows a micro-batch from the first pending request until
// MaxBatch, MaxDelay after enqueue of the first request, or a
// non-single item interrupts; the batch is then decided. The
// interrupting item, if any, is returned so the loop handles it next —
// strictly after the requests that preceded it.
func (s *Service) coalesce(first *pending) *item {
	batch := append(s.pendScratch[:0], first)
	var interrupt *item
	if s.cfg.MaxDelay > 0 && s.cfg.MaxBatch > 1 {
		wait := s.cfg.MaxDelay - time.Since(first.enq) //facs:wallclock shapes batch boundaries only; the outcome contracts pin decision equality across batchings
		if wait > 0 {
			timer := time.NewTimer(wait)
		fill:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case it, ok := <-s.in:
					if !ok {
						break fill
					}
					if it.single != nil {
						batch = append(batch, it.single)
					} else {
						interrupt = &it
						break fill
					}
				case <-timer.C:
					break fill
				}
			}
			timer.Stop()
		}
	}
	// Greedy tail: take whatever is already queued without waiting.
	if interrupt == nil {
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case it, ok := <-s.in:
				if !ok {
					break drain
				}
				if it.single != nil {
					batch = append(batch, it.single)
				} else {
					interrupt = &it
					break drain
				}
			default:
				break drain
			}
		}
	}
	reqs := s.reqScratch[:0]
	for _, p := range batch {
		reqs = append(reqs, p.req)
	}
	err := cac.DecideAllInto(s.cfg.Controller, reqs, s.decScratch)
	s.noteBatch(len(batch))
	for i, p := range batch {
		var resp Response
		if err != nil {
			resp = s.finishErr(err, len(batch))
		} else {
			resp = s.finish(p.req, s.decScratch[i], len(batch))
		}
		resp.Latency = s.noteLatency(p.enq, 1)
		p.reply <- resp
	}
	return interrupt
}

// decideWave decides one SubmitAll batch in deterministic MaxBatch
// chunks. A chunk's decision error fails the rest of the wave.
func (s *Service) decideWave(w *wave) {
	s.waves.Add(1)
	out := w.out
	var failed error
	for lo := 0; lo < len(w.reqs); lo += s.cfg.MaxBatch {
		hi := lo + s.cfg.MaxBatch
		if hi > len(w.reqs) {
			hi = len(w.reqs)
		}
		chunk := w.reqs[lo:hi]
		if failed == nil {
			err := cac.DecideAllInto(s.cfg.Controller, chunk, s.decScratch)
			s.noteBatch(len(chunk))
			if err != nil {
				failed = err
			} else {
				for i := range chunk {
					out[lo+i] = s.finish(chunk[i], s.decScratch[i], len(chunk))
				}
			}
		}
		if failed != nil {
			for i := range chunk {
				out[lo+i] = s.finishErr(failed, len(chunk))
			}
		}
	}
	lat := s.noteLatency(w.enq, len(w.reqs))
	for i := range out {
		out[i].Latency = lat
	}
	w.reply <- out
}

// finish applies the outcome of one decided request: commit in Commit
// mode, outcome counters, and the response skeleton.
func (s *Service) finish(req cac.Request, d cac.Decision, batchSize int) Response {
	s.decided.Add(1)
	resp := Response{Decision: d, Batch: batchSize}
	if !d.Accepted() {
		s.rejected.Add(1)
		return resp
	}
	s.accepted.Add(1)
	if !s.cfg.Commit {
		return resp
	}
	call := req.Call
	call.AdmittedAt = req.Now
	call.Handoff = req.Handoff
	h, err := req.Station.Admit(call)
	if err != nil {
		// Accepted against the batch-start snapshot, but earlier
		// accepts in the same chunk exhausted the bandwidth.
		s.commitErrs.Add(1)
		resp.Err = err
		return resp
	}
	resp.Committed = true
	resp.Handle = h
	s.committed.Add(1)
	if obs, ok := s.cfg.Controller.(cac.Observer); ok {
		obs.OnAdmit(req)
	}
	return resp
}

// finishErr records one request failed by a batch decision error.
func (s *Service) finishErr(err error, batchSize int) Response {
	s.decided.Add(1)
	s.rejected.Add(1)
	return Response{Decision: cac.Reject, Err: err, Batch: batchSize}
}

func (s *Service) runOp(o *op) {
	o.fn(s.cfg.Controller)
	s.ops.Add(1)
	if o.done != nil {
		close(o.done)
	}
}

func (s *Service) noteBatch(n int) {
	s.batches.Add(1)
	if int64(n) > s.maxBatch.Load() {
		s.maxBatch.Store(int64(n))
	}
}

// noteLatency records one completion covering n requests (a wave's
// requests all complete together, so its latency weighs n times into
// the average).
func (s *Service) noteLatency(enq time.Time, n int) time.Duration {
	lat := time.Since(enq) //facs:wallclock latency metric only
	s.latSumNs.Add(int64(lat) * int64(n))
	if int64(lat) > s.latMaxNs.Load() {
		s.latMaxNs.Store(int64(lat))
	}
	s.latHist[latencyBucket(lat)].Add(int64(n))
	return lat
}

// latencyBucket maps a latency to its power-of-two histogram bucket:
// the index of the highest set bit, i.e. bucket i covers [2^(i-1), 2^i)
// nanoseconds.
func latencyBucket(lat time.Duration) int {
	if lat <= 0 {
		return 0
	}
	b := bits.Len64(uint64(lat))
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	return b
}
