package main

import (
	"fmt"
	"io"

	"facs"
)

// The optional controller interfaces the decorator mirrors, declared
// here rather than taken from the facade so that a later merge of the
// program's batch interfaces cannot break this build: the decorator
// asks only whether a method exists.
type (
	cellLocalController interface{ CellLocal() }
	batchController     interface {
		DecideBatch(reqs []facs.AdmissionRequest) ([]facs.Decision, error)
	}
	batchIntoController interface {
		DecideBatchInto(reqs []facs.AdmissionRequest, out []facs.Decision) error
	}
	snapshotController interface {
		SnapshotTo(w io.Writer) error
		RestoreFrom(r io.Reader) error
	}
)

// unmirrored lists optional methods the decorator cannot pass through.
// A controller that has one is refused, so the engine never sees a
// wrapped controller that behaves differently from the bare one.
var unmirrored = []struct {
	name string
	has  func(facs.Controller) bool
}{
	{"OnAdmit", func(c facs.Controller) bool { _, ok := c.(interface{ OnAdmit(facs.AdmissionRequest) }); return ok }},
	{"OnRelease", func(c facs.Controller) bool {
		_, ok := c.(interface {
			OnRelease(int, *facs.BaseStation, float64)
		})
		return ok
	}},
	{"OnTick", func(c facs.Controller) bool { _, ok := c.(interface{ OnTick(float64) }); return ok }},
	{"OnStateUpdate", func(c facs.Controller) bool {
		_, ok := c.(interface {
			OnStateUpdate(int, facs.Estimate, *facs.BaseStation)
		})
		return ok
	}},
	{"ExportDemand", func(c facs.Controller) bool {
		_, ok := c.(interface{ ExportDemand() facs.DemandDelta })
		return ok
	}},
}

// decideHook observes every decision call the decorator forwards: begin
// runs before the wrapped call, end after it with the requests and the
// decisions the wrapped controller returned.
type decideHook interface {
	begin() int64
	end(tok int64, reqs []facs.AdmissionRequest, out []facs.Decision, err error)
}

// hooked holds the wrapped controller and the hook; the method-set
// types below embed it.
type hooked struct {
	inner facs.Controller
	hook  decideHook
}

func (h *hooked) Name() string { return h.inner.Name() }

func (h *hooked) Decide(req facs.AdmissionRequest) (facs.Decision, error) {
	tok := h.hook.begin()
	d, err := h.inner.Decide(req)
	h.hook.end(tok, []facs.AdmissionRequest{req}, []facs.Decision{d}, err)
	return d, err
}

type cellLocalMethod struct{}

func (cellLocalMethod) CellLocal() {}

type batchMethod struct{ h *hooked }

func (m batchMethod) DecideBatch(reqs []facs.AdmissionRequest) ([]facs.Decision, error) {
	tok := m.h.hook.begin()
	out, err := m.h.inner.(batchController).DecideBatch(reqs)
	m.h.hook.end(tok, reqs, out, err)
	return out, err
}

type batchIntoMethod struct{ h *hooked }

func (m batchIntoMethod) DecideBatchInto(reqs []facs.AdmissionRequest, out []facs.Decision) error {
	tok := m.h.hook.begin()
	err := m.h.inner.(batchIntoController).DecideBatchInto(reqs, out)
	m.h.hook.end(tok, reqs, out[:len(reqs)], err)
	return err
}

type snapshotMethods struct{ h *hooked }

func (m snapshotMethods) SnapshotTo(w io.Writer) error {
	return m.h.inner.(snapshotController).SnapshotTo(w)
}

func (m snapshotMethods) RestoreFrom(r io.Reader) error {
	return m.h.inner.(snapshotController).RestoreFrom(r)
}

// One type per combination of mirrored optional interfaces: bit 0
// CellLocal, bit 1 DecideBatch, bit 2 DecideBatchInto, bit 3 snapshots.
type (
	wrapped0 struct{ *hooked }
	wrapped1 struct {
		*hooked
		cellLocalMethod
	}
	wrapped2 struct {
		*hooked
		batchMethod
	}
	wrapped3 struct {
		*hooked
		cellLocalMethod
		batchMethod
	}
	wrapped4 struct {
		*hooked
		batchIntoMethod
	}
	wrapped5 struct {
		*hooked
		cellLocalMethod
		batchIntoMethod
	}
	wrapped6 struct {
		*hooked
		batchMethod
		batchIntoMethod
	}
	wrapped7 struct {
		*hooked
		cellLocalMethod
		batchMethod
		batchIntoMethod
	}
	wrapped8 struct {
		*hooked
		snapshotMethods
	}
	wrapped9 struct {
		*hooked
		cellLocalMethod
		snapshotMethods
	}
	wrapped10 struct {
		*hooked
		batchMethod
		snapshotMethods
	}
	wrapped11 struct {
		*hooked
		cellLocalMethod
		batchMethod
		snapshotMethods
	}
	wrapped12 struct {
		*hooked
		batchIntoMethod
		snapshotMethods
	}
	wrapped13 struct {
		*hooked
		cellLocalMethod
		batchIntoMethod
		snapshotMethods
	}
	wrapped14 struct {
		*hooked
		batchMethod
		batchIntoMethod
		snapshotMethods
	}
	wrapped15 struct {
		*hooked
		cellLocalMethod
		batchMethod
		batchIntoMethod
		snapshotMethods
	}
)

// methodMask reports which mirrored optional interfaces c implements.
func methodMask(c facs.Controller) int {
	mask := 0
	if _, ok := c.(cellLocalController); ok {
		mask |= 1
	}
	if _, ok := c.(batchController); ok {
		mask |= 2
	}
	if _, ok := c.(batchIntoController); ok {
		mask |= 4
	}
	if _, ok := c.(snapshotController); ok {
		mask |= 8
	}
	return mask
}

// wrapController returns inner behind hook with exactly inner's
// optional interfaces, so the engine dispatches to the wrapper exactly
// as it would to inner.
func wrapController(inner facs.Controller, hook decideHook) (facs.Controller, error) {
	for _, u := range unmirrored {
		if u.has(inner) {
			return nil, fmt.Errorf("decorator cannot mirror %s on controller %q", u.name, inner.Name())
		}
	}
	return shape(methodMask(inner), &hooked{inner: inner, hook: hook}), nil
}

// shape returns the decorator type that exposes exactly the optional
// methods mask names.
func shape(mask int, h *hooked) facs.Controller {
	c, b, i, s := cellLocalMethod{}, batchMethod{h}, batchIntoMethod{h}, snapshotMethods{h}
	switch mask {
	case 0:
		return wrapped0{h}
	case 1:
		return wrapped1{h, c}
	case 2:
		return wrapped2{h, b}
	case 3:
		return wrapped3{h, c, b}
	case 4:
		return wrapped4{h, i}
	case 5:
		return wrapped5{h, c, i}
	case 6:
		return wrapped6{h, b, i}
	case 7:
		return wrapped7{h, c, b, i}
	case 8:
		return wrapped8{h, s}
	case 9:
		return wrapped9{h, c, s}
	case 10:
		return wrapped10{h, b, s}
	case 11:
		return wrapped11{h, c, b, s}
	case 12:
		return wrapped12{h, i, s}
	case 13:
		return wrapped13{h, c, i, s}
	case 14:
		return wrapped14{h, b, i, s}
	default:
		return wrapped15{h, c, b, i, s}
	}
}
