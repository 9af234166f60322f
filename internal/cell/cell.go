package cell

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"facs/internal/geo"
	"facs/internal/traffic"
)

// DefaultCapacityBU is the paper's base-station bandwidth: 40 BU.
const DefaultCapacityBU = 40

// Sentinel errors returned by the allocation ledger.
var (
	// ErrInsufficientBandwidth reports that a call does not fit into the
	// station's free bandwidth.
	ErrInsufficientBandwidth = errors.New("cell: insufficient bandwidth")
	// ErrUnknownCall reports a release/lookup through a handle that names
	// no call the station carries: the zero Handle, a handle whose call
	// was already released (stale), or a handle minted by another
	// station (foreign).
	ErrUnknownCall = errors.New("cell: unknown call")
)

// Call is one admitted connection occupying bandwidth at a base station.
type Call struct {
	// ID is unique across the simulation.
	ID int
	// Class is the service class (text/voice/video).
	Class traffic.Class
	// BU is the occupied bandwidth.
	BU int
	// AdmittedAt is the simulation time of admission at this station.
	AdmittedAt float64
	// Handoff records whether the call arrived via handoff rather than as
	// a new call.
	Handoff bool
}

// Handle names one carried call at the station that admitted it: the
// call's slot in the station's pool, the slot's generation at admission
// and the station's tag. Admit mints it; Release, Call and
// Network.Handoff take it, so holders of a live call reach its record
// by direct slot access instead of an ID lookup. A handle goes stale
// the moment its call is released (the slot's generation moves on),
// and a handle is foreign at every station but the one that minted it;
// both resolve to ErrUnknownCall. The zero Handle names no call.
// Handles are opaque and never serialized: a restored station mints
// fresh ones (see HeldCalls).
type Handle struct {
	station uint32
	slot    uint32
	gen     uint32
}

// HeldCall is one carried call together with the handle that names it.
type HeldCall struct {
	Call
	Handle Handle
}

// stationTags mints each station's handle tag. It is process-wide so
// that no two stations share a tag (the values themselves are never
// observable), and tag 0 is never issued, so the zero Handle is foreign
// everywhere.
var stationTags atomic.Uint32

// callPool is the station's struct-of-arrays call ledger: call records
// live in a slot-indexed slice, and freed slots are recycled through a
// free-list stack, so admit and release are O(1) slot accesses and,
// once the pool has grown to its working-set size, allocation-free.
// Each slot carries a generation that advances on every admit and every
// release: odd while the slot holds a live call, even while it is free.
// A handle records the odd generation its call was admitted under, so a
// released (or released-and-reused) slot rejects every older handle
// (until the 32-bit generation wraps, after 2^31 reuses of one slot).
// There is no call-ID index: the ID is a label the station stores, not
// a key it looks up.
type callPool struct {
	// slots holds the call records; a freed slot's record is zeroed.
	slots []Call
	// gen is each slot's generation (odd = live).
	gen []uint32
	// free is the stack of recyclable slots.
	free []uint32
	// live counts the occupied slots.
	live int
}

// put inserts a call into a recycled or fresh slot and returns the
// slot and its new (odd) generation.
func (p *callPool) put(c Call) (uint32, uint32) {
	var slot uint32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[slot] = c
	} else {
		slot = uint32(len(p.slots))
		p.slots = append(p.slots, c)
		p.gen = append(p.gen, 0)
	}
	p.gen[slot]++
	p.live++
	return slot, p.gen[slot]
}

// holds reports whether slot is live under generation gen.
func (p *callPool) holds(slot, gen uint32) bool {
	return int(slot) < len(p.gen) && p.gen[slot] == gen && gen&1 == 1
}

// take frees a live slot and returns its record.
func (p *callPool) take(slot uint32) Call {
	c := p.slots[slot]
	p.slots[slot] = Call{}
	p.gen[slot]++
	p.free = append(p.free, slot)
	p.live--
	return c
}

// reset frees every live slot, staling every outstanding handle.
func (p *callPool) reset() {
	for slot, g := range p.gen {
		if g&1 == 1 {
			p.take(uint32(slot))
		}
	}
}

// reserve materializes storage for up to n concurrent calls: fresh
// slots are pushed onto the free stack (lowest first, matching the
// order lazy growth would have assigned them) and every backing array
// gets capacity n. After reserve(n), put and take never allocate while
// the live population stays at or below n. Slot numbering is
// unobservable outside the pool (handles are opaque), so reserving
// changes no behaviour — only when the memory is paid for.
func (p *callPool) reserve(n int) {
	if n <= len(p.slots) {
		return
	}
	old := len(p.slots)
	slots := make([]Call, n)
	copy(slots, p.slots)
	p.slots = slots
	gen := make([]uint32, n)
	copy(gen, p.gen)
	p.gen = gen
	free := make([]uint32, len(p.free), n)
	copy(free, p.free)
	p.free = free
	for slot := n - 1; slot >= old; slot-- {
		p.free = append(p.free, uint32(slot))
	}
}

// BaseStation is one cell's radio resource manager: the paper's RTC and
// NRTC counters over a handle-addressed call pool. It is not safe for
// concurrent use; the simulation kernel is single-threaded by design.
//
// The station does not look calls up by ID. Admit mints a Handle and
// every later operation on the call (Release, Call, Network.Handoff)
// presents it, so the admit/release cycle is a pair of slot writes.
// Consequently the station does not police call-ID uniqueness either:
// that contract lives at the boundaries that receive untrusted IDs
// (snapshot decode, the metropolis restore, the facs-serve wire), while
// the simulation drivers mint unique IDs themselves.
type BaseStation struct {
	hex      geo.Hex
	pos      geo.Point
	capacity int
	tag      uint32
	pool     callPool
	usedRT   int
	usedNRT  int
	// classBU tracks occupied BU per service class (indexed by
	// traffic.Class), so per-class admission policies need no ledger scan.
	classBU [4]int
}

// NewBaseStation constructs a station at the given hex/position with the
// given capacity in BU.
func NewBaseStation(hex geo.Hex, pos geo.Point, capacityBU int) (*BaseStation, error) {
	if capacityBU <= 0 {
		return nil, fmt.Errorf("cell: capacity must be > 0 BU, got %d", capacityBU)
	}
	return &BaseStation{
		hex:      hex,
		pos:      pos,
		capacity: capacityBU,
		tag:      stationTags.Add(1),
	}, nil
}

// Hex returns the station's grid coordinate.
func (b *BaseStation) Hex() geo.Hex { return b.hex }

// Pos returns the station's plane position in metres.
func (b *BaseStation) Pos() geo.Point { return b.pos }

// Capacity returns the total bandwidth in BU.
func (b *BaseStation) Capacity() int { return b.capacity }

// Reserve presizes the station's call-pool storage for up to n
// concurrent calls, so admit/release churn below that population
// performs no allocation. Every call occupies at least 1 BU, so
// Reserve(Capacity()) is the hard bound: after it the pool never
// allocates again. Reserving is purely a memory-layout decision —
// admission behaviour and outcomes are unchanged. n values not above
// the already-materialized pool size are no-ops.
func (b *BaseStation) Reserve(n int) { b.pool.reserve(n) }

// Used returns the occupied bandwidth in BU (RTC + NRTC).
func (b *BaseStation) Used() int { return b.usedRT + b.usedNRT }

// Free returns the available bandwidth in BU.
func (b *BaseStation) Free() int { return b.capacity - b.Used() }

// RTC returns the paper's Real Time Counter: BU held by voice and video.
func (b *BaseStation) RTC() int { return b.usedRT }

// NRTC returns the paper's Non Real Time Counter: BU held by text.
func (b *BaseStation) NRTC() int { return b.usedNRT }

// ClassBU returns the BU currently held by calls of the given class.
// Unknown classes hold nothing.
func (b *BaseStation) ClassBU(class traffic.Class) int {
	if !class.Valid() {
		return 0
	}
	return b.classBU[class]
}

// Occupancy returns Used/Capacity in [0, 1].
func (b *BaseStation) Occupancy() float64 {
	return float64(b.Used()) / float64(b.capacity)
}

// NumCalls returns the number of carried calls.
func (b *BaseStation) NumCalls() int { return b.pool.live }

// Fits reports whether a call of the given size would be admissible
// right now. It agrees with Admit on degenerate sizes: a call must
// occupy strictly positive bandwidth, so Fits(0) is false exactly as
// Admit rejects BU <= 0.
func (b *BaseStation) Fits(bu int) bool { return bu > 0 && bu <= b.Free() }

// Admit adds a call to the ledger, debiting the class counter, and
// returns the handle that names it from now on. The call must have a
// valid class and fit, otherwise the ledger is unchanged and an error
// (wrapping ErrInsufficientBandwidth on overflow) is returned. Admit
// does not compare IDs with the carried calls: callers mint unique IDs
// (see the BaseStation documentation).
//
//facs:hotpath
func (b *BaseStation) Admit(c Call) (Handle, error) {
	if c.BU <= 0 {
		return Handle{}, fmt.Errorf("cell: call %d has non-positive bandwidth %d", c.ID, c.BU) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if !c.Class.Valid() {
		return Handle{}, fmt.Errorf("cell: call %d has invalid class %v", c.ID, c.Class) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if c.BU > b.Free() {
		return Handle{}, fmt.Errorf("cell: admitting call %d (%d BU) at %v with %d BU free: %w", //facs:alloc reject/error path; formats nothing on the steady-state wave
			c.ID, c.BU, b.hex, b.Free(), ErrInsufficientBandwidth)
	}
	slot, gen := b.pool.put(c)
	b.account(c, 1)
	return Handle{station: b.tag, slot: slot, gen: gen}, nil
}

// account adds sign × the call's bandwidth to the occupancy counters:
// +1 on admit, -1 on release.
func (b *BaseStation) account(c Call, sign int) {
	if c.Class.RealTime() {
		b.usedRT += sign * c.BU
	} else {
		b.usedNRT += sign * c.BU
	}
	b.classBU[c.Class] += sign * c.BU
}

// Release removes the call h names from the ledger, crediting its
// bandwidth back, and returns its record. A stale, foreign or zero
// handle returns ErrUnknownCall and changes nothing.
//
//facs:hotpath
func (b *BaseStation) Release(h Handle) (Call, error) {
	if !b.live(h) {
		return Call{}, fmt.Errorf("cell: release at %v: %w", b.hex, ErrUnknownCall) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	c := b.pool.take(h.slot)
	b.account(c, -1)
	return c, nil
}

// live reports whether h names a call this station carries.
func (b *BaseStation) live(h Handle) bool {
	return h.station == b.tag && b.pool.holds(h.slot, h.gen)
}

// Call returns the record of the carried call h names; false for a
// stale, foreign or zero handle.
func (b *BaseStation) Call(h Handle) (Call, bool) {
	if !b.live(h) {
		return Call{}, false
	}
	return b.pool.slots[h.slot], true
}

// HeldCalls returns the carried calls with their handles, sorted by ID
// (equal IDs, which only a driver bug produces, keep no particular
// order). It is how a holder re-acquires handles it does not have —
// after a restore, which re-admits every call under fresh handles — and
// it is a scan, not a per-call lookup.
func (b *BaseStation) HeldCalls() []HeldCall {
	out := make([]HeldCall, 0, b.pool.live)
	for slot, g := range b.pool.gen {
		if g&1 == 1 {
			out = append(out, HeldCall{
				Call:   b.pool.slots[slot],
				Handle: Handle{station: b.tag, slot: uint32(slot), gen: g},
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Calls returns the carried calls sorted by ID (a defensive copy). The
// pool's slot order is history-dependent, so the sort keeps every
// observer deterministic.
func (b *BaseStation) Calls() []Call {
	held := b.HeldCalls()
	out := make([]Call, len(held))
	for i := range held {
		out[i] = held[i].Call
	}
	return out
}

// String implements fmt.Stringer.
func (b *BaseStation) String() string {
	return fmt.Sprintf("BS%v used=%d/%d (RTC=%d NRTC=%d)", b.hex, b.Used(), b.capacity, b.usedRT, b.usedNRT)
}
