// Package cell models the radio resource substrate: base stations with
// a fixed bandwidth-unit capacity and an allocation ledger split into
// the paper's Real-Time and Non-Real-Time counters (RTC/NRTC), plus a
// hexagonal multi-cell network with neighbour topology and handoffs.
//
// # Role and invariants
//
// The paper's evaluation uses a base station with 40 bandwidth units
// (BU); text, voice and video calls consume 1, 5 and 10 BU. The
// allocation ledger maintains Used() == RTC() + NRTC() <= Capacity() at
// all times: Admit rejects (leaving the ledger unchanged) on overflow,
// Release credits exactly what was debited. A BaseStation is not safe
// for concurrent use — the simulation kernel is single-threaded by
// design, and the streaming service serializes all mutation of a
// station in one goroutine (internal/serve, one per shard in
// internal/shard).
//
// Calls live in a struct-of-arrays pool (a slot arena with per-slot
// generations and a free-list stack) and are addressed by Handle, not
// by ID: Admit returns the handle, and Release, Call and
// Network.Handoff take it, so admit and release are direct slot
// accesses with no ID index. A released call's handle is stale (its
// slot's generation has moved on) and another station's handle is
// foreign; both resolve to ErrUnknownCall and change nothing.
// Steady-state admit/release cycles are allocation-free and per-class
// occupancy (ClassBU) is an O(1) counter — the memory model
// metropolis-scale populations rest on (see pool_test.go for the
// map-ledger equivalence and allocation gates).
//
// The station stores call IDs but never looks them up, so it does not
// police their uniqueness: the simulation drivers mint unique IDs, and
// the boundaries that accept untrusted ones enforce it — snapshot
// decode (RestoreFrom rejects non-ascending IDs), the metropolis
// restore, and the facs-serve wire. Calls, HeldCalls and snapshots list
// calls in ascending ID order, so every observer stays deterministic
// whatever the slot layout.
//
// # Entry points
//
// NewBaseStation builds a standalone station; NewNetwork builds the
// hexagonal deployment (Rings, CellRadiusM, CapacityBU) with
// StationAt/Neighbors lookup and Handoff moving a carried call between
// cells.
package cell
