package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"facs"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the trace's origin; Parent is the causing span's ID (0 for a
// root). Ref is the request ID or the batch (decision call) number the
// span belongs to. Requests counts the admission requests the span
// carried; Fast and Exact split them by compiled-FACS path where that
// is known.
type span struct {
	ID, Parent, Ref int64
	Name            string
	Start, End      int64
	Requests        int32
	Fast, Exact     int32
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a span and returns its ID.
func (t *tracer) add(s span) int64 {
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// write dumps the spans as tab-separated lines into dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tref\tname\tstart_ns\tend_ns\trequests\tfast\texact")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			s.ID, s.Parent, s.Ref, s.Name, s.Start, s.End, s.Requests, s.Fast, s.Exact)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// controllerSpans is the decideHook of the traced in-process run: one
// span per decision call into the controller, with compiled-FACS path
// counts taken from the controller's own statistics before and after
// the call when stats is set. Spans are parented to the wave-loop span
// the caller adds once the run is over.
type controllerSpans struct {
	t           *tracer
	parent      int64
	calls       int64
	stats       func() (fast, exact int64)
	fast, exact int64
}

func (c *controllerSpans) begin() int64 {
	if c.stats != nil {
		c.fast, c.exact = c.stats()
	}
	return c.t.now()
}

func (c *controllerSpans) end(tok int64, reqs []facs.AdmissionRequest, _ []facs.Decision, _ error) {
	c.calls++
	s := span{Parent: c.parent, Ref: c.calls, Name: "controller", Start: tok, End: c.t.now(), Requests: int32(len(reqs))}
	if c.stats != nil {
		fast, exact := c.stats()
		s.Fast, s.Exact = int32(fast-c.fast), int32(exact-c.exact)
	}
	c.t.add(s)
}

// exactSample is the decideHook of the compiled-FACS output check: it
// re-decides a 1-in-every sample of requests, chosen by a hash of the
// call ID, with the exact FACS and counts disagreements. It runs after
// the compiled call and before the engine commits anything, so both
// engines see the same station state.
type exactSample struct {
	exact              *facs.System
	every              uint64
	checked, disagreed int
	err                error
}

func (e *exactSample) begin() int64 { return 0 }

func (e *exactSample) end(_ int64, reqs []facs.AdmissionRequest, out []facs.Decision, err error) {
	if err != nil {
		return
	}
	for i := range reqs {
		if mix64(uint64(reqs[i].Call.ID))%e.every != 0 {
			continue
		}
		d, err := e.exact.Decide(reqs[i])
		if err != nil && e.err == nil {
			e.err = err
		}
		e.checked++
		if err != nil || d != out[i] {
			e.disagreed++
		}
	}
}

// mix64 is the splitmix64 finaliser, used to sample call IDs evenly.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
