package cell

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"facs/internal/geo"
	"facs/internal/traffic"
)

// refLedger is a map-based reference ledger, the behavioural oracle for
// the handle-addressed pool. It keys calls by a token the test assigns
// per successful admit, so (like the pool) it carries duplicate IDs as
// distinct calls.
type refLedger struct {
	capacity int
	calls    map[int]Call
	usedRT   int
	usedNRT  int
}

func newRefLedger(capacity int) *refLedger {
	return &refLedger{capacity: capacity, calls: make(map[int]Call)}
}

func (r *refLedger) free() int { return r.capacity - r.usedRT - r.usedNRT }

func (r *refLedger) admit(token int, c Call) error {
	if c.BU <= 0 || !c.Class.Valid() {
		return errors.New("invalid")
	}
	if c.BU > r.free() {
		return ErrInsufficientBandwidth
	}
	r.calls[token] = c
	if c.Class.RealTime() {
		r.usedRT += c.BU
	} else {
		r.usedNRT += c.BU
	}
	return nil
}

func (r *refLedger) release(token int) (Call, error) {
	c, ok := r.calls[token]
	if !ok {
		return Call{}, ErrUnknownCall
	}
	delete(r.calls, token)
	if c.Class.RealTime() {
		r.usedRT -= c.BU
	} else {
		r.usedNRT -= c.BU
	}
	return c, nil
}

func (r *refLedger) sorted() []Call {
	out := make([]Call, 0, len(r.calls))
	for _, c := range r.calls {
		out = append(out, c)
	}
	sortCalls(out)
	return out
}

// sortCalls orders calls by every field, so multisets with duplicate
// IDs compare deterministically.
func sortCalls(cs []Call) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		switch {
		case a.ID != b.ID:
			return a.ID < b.ID
		case a.Class != b.Class:
			return a.Class < b.Class
		case a.BU != b.BU:
			return a.BU < b.BU
		case a.AdmittedAt != b.AdmittedAt:
			return a.AdmittedAt < b.AdmittedAt
		default:
			return !a.Handoff && b.Handoff
		}
	})
}

func (r *refLedger) classBU(class traffic.Class) int {
	var sum int
	for _, c := range r.calls {
		if c.Class == class {
			sum += c.BU
		}
	}
	return sum
}

// sameOutcome reports whether two ledger errors agree: both nil, or both
// classifiable as the same sentinel / both "invalid argument".
func sameOutcome(poolErr, refErr error) bool {
	if (poolErr == nil) != (refErr == nil) {
		return false
	}
	if poolErr == nil {
		return true
	}
	for _, sentinel := range []error{ErrInsufficientBandwidth, ErrUnknownCall} {
		if errors.Is(refErr, sentinel) {
			return errors.Is(poolErr, sentinel)
		}
	}
	// Reference rejected the arguments outright; the pool must too, with
	// a non-sentinel validation error.
	return !errors.Is(poolErr, ErrInsufficientBandwidth) && !errors.Is(poolErr, ErrUnknownCall)
}

// TestPoolMatchesMapLedger drives the handle-addressed BaseStation and
// a map-based reference ledger through the same randomized stream of
// every op type — admits (including duplicate IDs, overcommit attempts,
// degenerate BU and invalid classes), releases and lookups through
// live handles, stale handles (released, usually with the slot since
// reused by a newer call), foreign handles (minted by another station)
// and the zero handle — and checks they agree on every outcome and on
// all observable state after every operation. A failed op must change
// nothing.
func TestPoolMatchesMapLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bs := newBS(t, 60)
	other := newBS(t, 1<<20)
	ref := newRefLedger(60)
	classes := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video, traffic.Class(9)}

	type held struct {
		h     Handle
		token int
	}
	live := make([]held, 0, 64)
	var stale, foreign []Handle
	nextID, nextToken := 0, 0
	staleReused := 0
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(100); {
		case r < 50: // admit
			var c Call
			switch k := rng.Intn(100); {
			case k < 5 && len(live) > 0: // duplicate ID: a distinct call
				pc, _ := bs.Call(live[rng.Intn(len(live))].h)
				c = Call{ID: pc.ID, Class: traffic.Voice, BU: 5, AdmittedAt: float64(op)}
			case k < 10: // degenerate BU
				c = Call{ID: nextID, Class: traffic.Text, BU: rng.Intn(3) - 2}
				nextID++
			case k < 13: // invalid class
				c = Call{ID: nextID, Class: classes[3], BU: 1}
				nextID++
			default:
				class := classes[rng.Intn(3)]
				c = Call{ID: nextID, Class: class, BU: class.BandwidthUnits(),
					AdmittedAt: float64(op), Handoff: rng.Intn(2) == 0}
				nextID++
			}
			h, errPool := bs.Admit(c)
			errRef := ref.admit(nextToken, c)
			if !sameOutcome(errPool, errRef) {
				t.Fatalf("op %d: Admit(%+v) pool=%v ref=%v", op, c, errPool, errRef)
			}
			if errPool == nil {
				live = append(live, held{h: h, token: nextToken})
				nextToken++
			} else if h != (Handle{}) {
				t.Fatalf("op %d: failed Admit minted %v", op, h)
			}
		case r < 80 && len(live) > 0: // release through a live handle
			i := rng.Intn(len(live))
			l := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			cPool, errPool := bs.Release(l.h)
			cRef, errRef := ref.release(l.token)
			if !sameOutcome(errPool, errRef) || errPool != nil {
				t.Fatalf("op %d: Release(live %v) pool=%v ref=%v", op, l.h, errPool, errRef)
			}
			if cPool != cRef {
				t.Fatalf("op %d: Release(%v) returned %+v, ref %+v", op, l.h, cPool, cRef)
			}
			if _, ok := bs.Call(l.h); ok {
				t.Fatalf("op %d: released handle %v still resolves", op, l.h)
			}
			stale = append(stale, l.h)
		case r < 90: // release through a handle naming no call here
			var h Handle
			switch k := rng.Intn(3); {
			case k == 0 && len(stale) > 0:
				h = stale[rng.Intn(len(stale))]
				if bs.pool.holds(h.slot, bs.pool.gen[h.slot]) {
					staleReused++
				}
			case k == 1:
				if len(foreign) == 0 || rng.Intn(4) == 0 {
					fh, err := other.Admit(Call{ID: nextID, Class: traffic.Text, BU: 1})
					if err != nil {
						t.Fatal(err)
					}
					foreign = append(foreign, fh)
				}
				h = foreign[rng.Intn(len(foreign))]
			}
			if _, ok := bs.Call(h); ok {
				t.Fatalf("op %d: Call(%v) resolved a stale/foreign/zero handle", op, h)
			}
			if _, err := bs.Release(h); !errors.Is(err, ErrUnknownCall) {
				t.Fatalf("op %d: Release(%v) err = %v, want ErrUnknownCall", op, h, err)
			}
		default: // lookup through a live handle
			if len(live) == 0 {
				continue
			}
			l := live[rng.Intn(len(live))]
			c, ok := bs.Call(l.h)
			if !ok || c != ref.calls[l.token] {
				t.Fatalf("op %d: Call(%v) = %+v,%v, ref %+v", op, l.h, c, ok, ref.calls[l.token])
			}
		}

		if bs.Used() != ref.usedRT+ref.usedNRT || bs.RTC() != ref.usedRT || bs.NRTC() != ref.usedNRT {
			t.Fatalf("op %d: counters diverged: pool used/RTC/NRTC=%d/%d/%d ref=%d/%d/%d",
				op, bs.Used(), bs.RTC(), bs.NRTC(), ref.usedRT+ref.usedNRT, ref.usedRT, ref.usedNRT)
		}
		if bs.NumCalls() != len(ref.calls) {
			t.Fatalf("op %d: NumCalls=%d ref=%d", op, bs.NumCalls(), len(ref.calls))
		}
	}
	if staleReused == 0 {
		t.Fatal("no stale handle hit a reused slot; the generation check went unexercised")
	}

	// Deep-compare final observable state.
	got, want := bs.Calls(), ref.sorted()
	sortCalls(got)
	if len(got) != len(want) {
		t.Fatalf("Calls(): %d calls, ref %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Calls()[%d] = %+v, ref %+v", i, got[i], want[i])
		}
	}
	for _, l := range live {
		if c, ok := bs.Call(l.h); !ok || c != ref.calls[l.token] {
			t.Fatalf("Call(%v) = %+v,%v, ref %+v", l.h, c, ok, ref.calls[l.token])
		}
	}
	for _, class := range traffic.Classes() {
		if bs.ClassBU(class) != ref.classBU(class) {
			t.Fatalf("ClassBU(%v) = %d, ref %d", class, bs.ClassBU(class), ref.classBU(class))
		}
	}
}

// TestStaleHandleRejected pins the generation contract on its own: a
// released call's handle resolves to nothing and releases nothing, even
// after a new call has reused its slot, and the new call is untouched.
func TestStaleHandleRejected(t *testing.T) {
	bs := newBS(t, 40)
	old, err := bs.Admit(Call{ID: 1, Class: traffic.Video, BU: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Release(old); err != nil {
		t.Fatal(err)
	}
	reused, err := bs.Admit(Call{ID: 2, Class: traffic.Voice, BU: 5})
	if err != nil {
		t.Fatal(err)
	}
	if reused.slot != old.slot {
		t.Fatalf("slot not reused: old %v, new %v", old, reused)
	}
	if _, ok := bs.Call(old); ok {
		t.Fatal("stale handle resolves to the slot's new call")
	}
	if _, err := bs.Release(old); !errors.Is(err, ErrUnknownCall) {
		t.Fatalf("stale release: err = %v, want ErrUnknownCall", err)
	}
	if c, ok := bs.Call(reused); !ok || c.ID != 2 || bs.Used() != 5 || bs.NumCalls() != 1 {
		t.Fatalf("stale release disturbed the live call: %+v,%v used=%d calls=%d", c, ok, bs.Used(), bs.NumCalls())
	}
}

// TestPoolHandoffEquivalence checks Network.Handoff keeps the pool-based
// ledgers consistent under randomized moves, including drops.
func TestPoolHandoffEquivalence(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Rings: 2, CapacityBU: 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	stations := net.Stations()
	type loc struct {
		hex geo.Hex
		bu  int
		h   Handle
	}
	where := make(map[int]loc)
	nextID := 0
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Intn(100) < 40 || len(where) == 0: // admit somewhere
			bs := stations[rng.Intn(len(stations))]
			class := traffic.Classes()[rng.Intn(3)]
			c := Call{ID: nextID, Class: class, BU: class.BandwidthUnits()}
			nextID++
			if h, err := bs.Admit(c); err == nil {
				where[c.ID] = loc{hex: bs.Hex(), bu: c.BU, h: h}
			}
		default: // hand off a random live call to a random neighbour
			var id int
			for id = range where { // any element; order does not matter here
				break
			}
			l := where[id]
			neigh := l.hex.Neighbors()
			to := neigh[rng.Intn(len(neigh))]
			nh, err := net.Handoff(l.h, l.hex, to, float64(op))
			dst, inside := net.At(to)
			if !inside {
				if err == nil {
					t.Fatalf("op %d: handoff into missing cell %v succeeded", op, to)
				}
				continue
			}
			if err != nil {
				// Drop candidate: call must still be at the source.
				if c, ok := netStation(t, net, l.hex).Call(l.h); !ok || c.ID != id || c.BU != l.bu {
					t.Fatalf("op %d: failed handoff lost call %d", op, id)
				}
				continue
			}
			if _, ok := netStation(t, net, l.hex).Call(l.h); ok {
				t.Fatalf("op %d: call %d still at source after handoff", op, id)
			}
			c, ok := dst.Call(nh)
			if !ok || c.ID != id || c.BU != l.bu || !c.Handoff {
				t.Fatalf("op %d: call %d at target = %+v,%v", op, id, c, ok)
			}
			where[id] = loc{hex: to, bu: l.bu, h: nh}
		}
	}
	// Conservation: per-station Used matches the sum of tracked calls.
	usedByHex := make(map[geo.Hex]int)
	for _, l := range where {
		usedByHex[l.hex] += l.bu
	}
	for _, bs := range net.Stations() {
		if bs.Used() != usedByHex[bs.Hex()] {
			t.Fatalf("station %v used=%d, tracked %d", bs.Hex(), bs.Used(), usedByHex[bs.Hex()])
		}
	}
	if net.TotalUsed() != sumValues(usedByHex) {
		t.Fatalf("TotalUsed=%d, tracked %d", net.TotalUsed(), sumValues(usedByHex))
	}
}

func netStation(t *testing.T, n *Network, h geo.Hex) *BaseStation {
	t.Helper()
	bs, ok := n.At(h)
	if !ok {
		t.Fatalf("no station at %v", h)
	}
	return bs
}

func sumValues(m map[geo.Hex]int) int {
	var s int
	for _, v := range m {
		s += v
	}
	return s
}

// TestPoolSlotReuse pins the free-list mechanics: released slots are
// recycled before the backing array grows, and the generation parity
// (odd = live) agrees with the free list and the live count.
func TestPoolSlotReuse(t *testing.T) {
	bs := newBS(t, 1000)
	handles := make([]Handle, 50)
	for i := range handles {
		h, err := bs.Admit(Call{ID: i, Class: traffic.Text, BU: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	baseSlots := len(bs.pool.slots)
	for round := 0; round < 50; round++ {
		if _, err := bs.Release(handles[round]); err != nil {
			t.Fatal(err)
		}
		h, err := bs.Admit(Call{ID: 1000 + round, Class: traffic.Voice, BU: 5})
		if err != nil {
			t.Fatal(err)
		}
		if h.slot != handles[round].slot || h.gen != handles[round].gen+2 {
			t.Fatalf("round %d: admit after release got %v, want slot %d at generation %d",
				round, h, handles[round].slot, handles[round].gen+2)
		}
	}
	if len(bs.pool.slots) != baseSlots {
		t.Fatalf("slot array grew from %d to %d despite free-list reuse", baseSlots, len(bs.pool.slots))
	}
	freeCount, liveCount := 0, 0
	for slot, g := range bs.pool.gen {
		if g&1 == 1 {
			liveCount++
			continue
		}
		freeCount++
		if bs.pool.slots[slot] != (Call{}) {
			t.Fatalf("free slot %d not zeroed: %+v", slot, bs.pool.slots[slot])
		}
	}
	if freeCount != len(bs.pool.free) || liveCount != bs.NumCalls() {
		t.Fatalf("generations report %d free/%d live slots, pool has %d free/%d live",
			freeCount, liveCount, len(bs.pool.free), bs.NumCalls())
	}
}

// TestAdmitReleaseSteadyStateZeroAllocs is the allocation-regression
// gate for the memory overhaul: once the pool has reached its
// working-set size, admit/release churn must not allocate.
func TestAdmitReleaseSteadyStateZeroAllocs(t *testing.T) {
	bs := newBS(t, 100000)
	// Warm the pool to working-set size; handles form a FIFO ring.
	const workingSet = 4096
	ring := make([]Handle, workingSet)
	for i := range ring {
		h, err := bs.Admit(Call{ID: i, Class: traffic.Voice, BU: 5})
		if err != nil {
			t.Fatal(err)
		}
		ring[i] = h
	}
	id := workingSet
	allocs := testing.AllocsPerRun(1000, func() {
		k := id % workingSet
		if _, err := bs.Release(ring[k]); err != nil {
			t.Fatal(err)
		}
		h, err := bs.Admit(Call{ID: id, Class: traffic.Voice, BU: 5})
		if err != nil {
			t.Fatal(err)
		}
		ring[k] = h
		id++
	})
	if allocs != 0 {
		t.Fatalf("steady-state admit/release allocates %.1f allocs/op, want 0", allocs)
	}
}
