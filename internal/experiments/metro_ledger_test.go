package experiments

import (
	"bytes"
	"strings"
	"testing"

	"facs/internal/cell"
)

// ledgerModes are the decision paths whose ledger handling the
// corruption tests cover: the inline engine (where a bad release fails
// the wave at once) and the sharded engine (where releases are
// asynchronous and a bad one fails the run at finish).
var ledgerModes = []struct {
	name   string
	mode   MetropolisMode
	shards int
}{
	{"batch", MetroBatch, 1},
	{"sharded", MetroSharded, 2},
}

// sameStationRows returns two ledger rows held at one station.
func sameStationRows(t *testing.T, l *metroLedger) (int, int) {
	t.Helper()
	first := map[int32]int{}
	for i, st := range l.station {
		if j, ok := first[st]; ok {
			return j, i
		}
		first[st] = i
	}
	t.Fatal("no station holds two ledger rows")
	return 0, 0
}

// TestMetropolisCorruptLedgerFailsRun pins that the wave loop never
// drops a release silently: once a ledger row's handle no longer names
// its call — zeroed, stale (the call released behind the driver's
// back), or swapped with another row's — the run fails instead of
// finishing with a quietly diverged station.
func TestMetropolisCorruptLedgerFailsRun(t *testing.T) {
	corruptions := []struct {
		name  string
		apply func(t *testing.T, r *metroRun)
	}{
		{"zero-handle", func(t *testing.T, r *metroRun) {
			r.ledger.handle[0] = cell.Handle{}
		}},
		{"stale-handle", func(t *testing.T, r *metroRun) {
			bs := r.workload.stations[r.ledger.station[0]]
			if _, err := bs.Release(r.ledger.handle[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"swapped-handles", func(t *testing.T, r *metroRun) {
			i, j := sameStationRows(t, &r.ledger)
			r.ledger.handle[i], r.ledger.handle[j] = r.ledger.handle[j], r.ledger.handle[i]
		}},
	}
	for _, m := range ledgerModes {
		for _, c := range corruptions {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				cfg := metroTestConfig(shardGuardFactory)
				cfg.Mode, cfg.Shards = m.mode, m.shards
				r, err := newMetroRun(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer r.engine.close()
				for r.wave < 4 {
					if err := r.runWave(); err != nil {
						t.Fatal(err)
					}
				}
				c.apply(t, r)
				for r.wave < r.cfg.Waves {
					if err = r.runWave(); err != nil {
						break
					}
				}
				if err == nil {
					_, err = r.finish()
				}
				if err == nil {
					t.Fatal("run with a corrupted ledger row finished without error")
				}
			})
		}
	}
}

// TestMetropolisRestoreRejectsLedgerMismatch pins the restore boundary:
// every ledger row must resolve to a call its station carries, no call
// ID may appear twice, and every carried call must have its row — a
// snapshot breaking any of these is refused, while the same run's
// untouched snapshot restores.
func TestMetropolisRestoreRejectsLedgerMismatch(t *testing.T) {
	corruptions := []struct {
		name, want string
		apply      func(t *testing.T, r *metroRun)
	}{
		{"row-at-wrong-station", "does not", func(t *testing.T, r *metroRun) {
			r.ledger.station[0] = (r.ledger.station[0] + 1) % int32(len(r.workload.stations))
		}},
		{"duplicate-id", "twice", func(t *testing.T, r *metroRun) {
			r.ledger.id[1] = r.ledger.id[0]
		}},
		{"missing-row", "does not hold", func(t *testing.T, r *metroRun) {
			r.ledger.truncate(r.ledger.len() - 1)
		}},
		{"class-mismatch", "disagrees", func(t *testing.T, r *metroRun) {
			r.ledger.bu[0]++
		}},
	}
	for _, m := range ledgerModes {
		cfg := metroTestConfig(shardGuardFactory)
		cfg.Mode, cfg.Shards = m.mode, m.shards
		snapshot := func(apply func(t *testing.T, r *metroRun)) []byte {
			r, err := newMetroRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.engine.close()
			for r.wave < 6 {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			if apply != nil {
				apply(t, r)
			}
			var buf bytes.Buffer
			if err := r.snapshotTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		restore := func(blob []byte) error {
			r, err := newMetroRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.engine.close()
			return r.restoreFrom(bytes.NewReader(blob))
		}
		for _, c := range corruptions {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				err := restore(snapshot(c.apply))
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("restore error = %v, want one mentioning %q", err, c.want)
				}
			})
		}
		t.Run(m.name+"/intact", func(t *testing.T) {
			if err := restore(snapshot(nil)); err != nil {
				t.Fatalf("intact snapshot: %v", err)
			}
		})
	}
}

// TestNeighborTableMatchesNetwork pins the handoff round's precomputed
// neighbour table to the network's own topology: for every station, the
// six entries follow geo.Hex.Neighbors order and name the station at
// that hex, or -1 where the hex lies outside the deployment.
func TestNeighborTableMatchesNetwork(t *testing.T) {
	for rings := 0; rings <= 4; rings++ {
		net, err := cell.NewNetwork(cell.NetworkConfig{Rings: rings})
		if err != nil {
			t.Fatal(err)
		}
		stations := net.Stations()
		index := map[*cell.BaseStation]int32{}
		for i, bs := range stations {
			index[bs] = int32(i)
		}
		table := neighborTable(stations)
		for i, bs := range stations {
			for d, nh := range bs.Hex().Neighbors() {
				want := int32(-1)
				if nbs, ok := net.At(nh); ok {
					want = index[nbs]
				}
				if table[i][d] != want {
					t.Fatalf("rings %d: station %v direction %d = %d, want %d", rings, bs.Hex(), d, table[i][d], want)
				}
			}
		}
	}
}
