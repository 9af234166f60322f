package main

import (
	"io"
	"reflect"
	"sort"
	"testing"

	"facs"
)

// countingHook counts calls and requests.
type countingHook struct{ calls, reqs int }

func (h *countingHook) begin() int64 { return 0 }
func (h *countingHook) end(_ int64, reqs []facs.AdmissionRequest, _ []facs.Decision, _ error) {
	h.calls++
	h.reqs += len(reqs)
}

type nopHook struct{}

func (nopHook) begin() int64                                               { return 0 }
func (nopHook) end(int64, []facs.AdmissionRequest, []facs.Decision, error) {}

// fullController has every mirrored method; the decorator's own shape
// around it yields a fake controller for each method combination.
type fullController struct{}

func (fullController) Name() string { return "full" }
func (fullController) Decide(facs.AdmissionRequest) (facs.Decision, error) {
	return facs.Accept, nil
}
func (fullController) CellLocal() {}
func (fullController) DecideBatch(reqs []facs.AdmissionRequest) ([]facs.Decision, error) {
	return make([]facs.Decision, len(reqs)), nil
}
func (fullController) DecideBatchInto([]facs.AdmissionRequest, []facs.Decision) error { return nil }
func (fullController) SnapshotTo(io.Writer) error                                     { return nil }
func (fullController) RestoreFrom(io.Reader) error                                    { return nil }

func methodNames(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumMethod())
	for i := range names {
		names[i] = t.Method(i).Name
	}
	sort.Strings(names)
	return names
}

func TestDecoratorMirrorsEveryMethodCombination(t *testing.T) {
	for mask := 0; mask < 16; mask++ {
		// The fake for this mask is the decorator's own shape around a
		// controller that has every method.
		fake := shape(mask, &hooked{inner: fullController{}, hook: nopHook{}})
		if got := methodMask(fake); got != mask {
			t.Fatalf("fake for mask %d reports mask %d", mask, got)
		}
		wrapped, err := wrapController(fake, nopHook{})
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if got, want := methodNames(wrapped), methodNames(fake); !reflect.DeepEqual(got, want) {
			t.Errorf("mask %d: wrapper methods %v, wrapped %v", mask, got, want)
		}
	}
}

func TestDecoratorRefusesStatefulControllers(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := facs.NewSCCLedger(facs.SCCConfig{Network: netw})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapController(ledger, nopHook{}); err == nil {
		t.Error("wrapping an observer controller must fail")
	}
}

func TestDecoratorKeepsProgramControllersDispatch(t *testing.T) {
	guard, err := facs.NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := facs.NewCompiledSystem(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []facs.Controller{guard, compiled} {
		h := &countingHook{}
		w, err := wrapController(inner, h)
		if err != nil {
			t.Fatal(err)
		}
		if methodMask(w) != methodMask(inner) {
			t.Errorf("%s: mask %b, wrapped %b", inner.Name(), methodMask(w), methodMask(inner))
		}
		netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
		if err != nil {
			t.Fatal(err)
		}
		bs := netw.Stations()[0]
		reqs := []facs.AdmissionRequest{
			{Call: facs.Call{ID: 1, Class: facs.Voice, BU: 5}, Station: bs, Obs: facs.Observation{SpeedKmh: 40, DistanceKm: 1}},
			{Call: facs.Call{ID: 2, Class: facs.Video, BU: 10}, Station: bs, Obs: facs.Observation{SpeedKmh: 10, AngleDeg: 90, DistanceKm: 3}},
		}
		want, err := facs.DecideAll(inner, reqs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := facs.DecideAll(w, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped decisions %v, bare %v", inner.Name(), got, want)
		}
		if h.calls != 1 || h.reqs != 2 {
			t.Errorf("%s: hook saw %d calls, %d requests; want one batch call of 2", inner.Name(), h.calls, h.reqs)
		}
	}
}
