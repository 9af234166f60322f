package cac

import "fmt"

// BatchController is implemented by controllers with a native batch
// decision path: DecideBatchInto answers many admission questions in
// one call, amortising per-request work (surface lookups, scratch
// buffers, station state reads) that Decide pays on every invocation,
// and writes the decisions into a caller-provided buffer. Long-lived
// decision loops (serve.Service, the sharded engine, the metropolis
// wave loop) reuse one buffer across millions of batches, so the
// steady-state decision path performs zero allocations.
//
// Contract: out[i] must equal Decide(reqs[i]) evaluated against the
// same controller and station state — batching changes the cost of a
// decision, never its outcome. len(out) must be >= len(reqs) (only the
// first len(reqs) entries are written). Controllers must not mutate any
// station; like Decide, the caller allocates on Accept. A request that
// fails validation aborts the batch with its error.
type BatchController interface {
	Controller
	// DecideBatchInto writes one decision per request, in request
	// order, into out[:len(reqs)].
	DecideBatchInto(reqs []Request, out []Decision) error
}

// DecideOne renders a single decision through the batch pipeline using
// caller-provided scratch, so event-driven loops route through the same
// DecideAllInto dispatch as real batches without a per-decision
// allocation.
func DecideOne(c Controller, scratch *[1]Request, req Request) (Decision, error) {
	scratch[0] = req
	var out [1]Decision
	if err := DecideAllInto(c, scratch[:], out[:]); err != nil {
		return Reject, err
	}
	return out[0], nil
}

// DecideAll renders decisions for a batch of requests through c's
// native batch path when it implements BatchController, and falls back
// to sequential Decide calls otherwise. It is the single entry point
// callers should use for multi-request admission when they do not
// manage an output buffer; hot loops should prefer DecideAllInto with
// reused scratch.
func DecideAll(c Controller, reqs []Request) ([]Decision, error) {
	out := make([]Decision, len(reqs))
	if err := DecideAllInto(c, reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideAllInto renders decisions for a batch of requests into the
// caller-provided buffer out, which must hold at least len(reqs)
// entries. Dispatch prefers the native BatchController path, then
// sequential Decide calls — outcomes are identical on both paths. Both
// write straight into out, so a controller whose decisions allocate
// nothing makes the whole call allocation-free, which is what the
// steady-state zero-alloc gates on the metropolis wave loop pin.
//
//facs:hotpath
func DecideAllInto(c Controller, reqs []Request, out []Decision) error {
	if len(out) < len(reqs) {
		return errShortDecisionBuffer(len(reqs), len(out))
	}
	out = out[:len(reqs)]
	if bc, ok := c.(BatchController); ok {
		return bc.DecideBatchInto(reqs, out)
	}
	for i := range reqs {
		d, err := c.Decide(reqs[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// errShortDecisionBuffer formats the buffer-misuse error.
//
//facs:coldpath error constructor; called only on caller misuse
func errShortDecisionBuffer(reqs, slots int) error {
	return fmt.Errorf("cac: decision buffer too short: %d requests, %d slots", reqs, slots)
}
