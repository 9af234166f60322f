package cell

import (
	"io"

	"facs/internal/snap"
	"facs/internal/traffic"
)

// snapshotHash fingerprints the station's identity: its hex address
// and capacity. A snapshot restores only onto the same cell of an
// identically-provisioned network.
func (b *BaseStation) snapshotHash() uint64 {
	return snap.NewHasher().
		Str("base-station").
		Int(b.hex.Q).
		Int(b.hex.R).
		Int(b.capacity).
		Sum()
}

// SnapshotTo implements cac.Snapshotter: it writes the station's
// admitted calls (ID-sorted, with their exact admission timestamps and
// handoff flags) as one snapshot blob. Occupancy counters are not
// stored — RestoreFrom re-derives them by re-admitting every call, so
// they can never disagree with the call set.
func (b *BaseStation) SnapshotTo(w io.Writer) error {
	e := snap.NewEncoder(w, "base-station", b.snapshotHash())
	calls := b.Calls()
	e.U32(uint32(len(calls)))
	for _, c := range calls {
		e.Int(c.ID)
		e.Int(int(c.Class))
		e.Int(c.BU)
		e.F64(c.AdmittedAt)
		e.Bool(c.Handoff)
	}
	return e.Close()
}

// RestoreFrom implements cac.Snapshotter: it replaces the station's
// call set with the snapshot's. The blob is fully decoded and
// validated (strictly ascending — hence unique — IDs, valid classes,
// total bandwidth within capacity) before any state changes, so a
// corrupt snapshot leaves the station untouched. The ascending-ID check
// is where a station's call set is held to unique IDs: the station
// itself admits by handle and never compares IDs.
func (b *BaseStation) RestoreFrom(r io.Reader) error {
	d, err := snap.NewDecoder(r, "base-station", b.snapshotHash())
	if err != nil {
		return err
	}
	n := int(d.U32())
	// Each call costs at least 8+8+8+8+1 payload bytes; bounding the
	// count by the remaining bytes keeps a corrupt length from driving
	// the allocation.
	if d.Err() == nil && n*33 > d.Len() {
		d.Fail("%d calls declared, %d payload bytes left", n, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	calls := make([]Call, n)
	total := 0
	for i := range calls {
		calls[i] = Call{
			ID:         d.Int(),
			Class:      traffic.Class(d.Int()),
			BU:         d.Int(),
			AdmittedAt: d.F64(),
			Handoff:    d.Bool(),
		}
		c := &calls[i]
		if d.Err() != nil {
			break
		}
		if !c.Class.Valid() {
			d.Fail("call %d has invalid class %d", c.ID, int(c.Class))
		}
		if c.BU <= 0 {
			d.Fail("call %d has non-positive bandwidth %d", c.ID, c.BU)
		}
		if i > 0 && c.ID <= calls[i-1].ID {
			d.Fail("call IDs not strictly ascending at %d", c.ID)
		}
		total += c.BU
	}
	if d.Err() == nil && total > b.capacity {
		d.Fail("snapshot carries %d BU, capacity is %d", total, b.capacity)
	}
	if err := d.Close(); err != nil {
		return err
	}
	// Empty the pool, which stales every outstanding handle: the
	// restored calls are re-admitted under fresh ones (HeldCalls hands
	// them out). Validation above guarantees every Admit succeeds:
	// classes are valid and the total fits.
	b.pool.reset()
	b.usedRT, b.usedNRT = 0, 0
	b.classBU = [4]int{}
	for i := range calls {
		if _, err := b.Admit(calls[i]); err != nil {
			return err
		}
	}
	return nil
}
