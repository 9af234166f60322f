package facs_test

import (
	"testing"

	"facs"
)

// Public-API smoke tests for the sharded admission engine; the
// exhaustive determinism suites live in internal/shard and
// internal/experiments.

func TestPublicShardedEngine(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := facs.NewShardedEngine(facs.ShardedEngineConfig{
		Network: netw,
		Shards:  3,
		Commit:  true,
		NewController: func(v facs.ShardView) (facs.Controller, error) {
			if v.NumCells() == 0 {
				t.Errorf("shard %d owns no cells", v.Index())
			}
			return facs.CompleteSharing{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.CellLocal() {
		t.Fatal("complete-sharing shards should be cell-local")
	}

	stations := netw.Stations()
	responses, err := eng.SubmitWave([]facs.AdmissionRequest{
		{Call: facs.Call{ID: 1, Class: facs.Voice, BU: 5}, Station: stations[0]},
		{Call: facs.Call{ID: 2, Class: facs.Video, BU: 10}, Station: stations[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range responses {
		if r.Err != nil || !r.Committed {
			t.Fatalf("response %d: %+v", i, r)
		}
	}

	res := eng.HandoffCall(facs.ShardHandoff{CallID: 1, Handle: responses[0].Handle, From: stations[0], To: stations[1], Now: 3})
	if res.Err != nil || res.Response.Err != nil || !res.Response.Committed {
		t.Fatalf("handoff: %+v", res)
	}
	if st := eng.Stats(); st.Handoffs != 1 || st.Total.Decided != 3 {
		t.Fatalf("stats: %+v", st)
	}

	// The single-shard view hands replay oracles the whole network.
	if v := facs.SingleShardView(netw); v.NumCells() != netw.NumCells() {
		t.Fatalf("single view owns %d cells, want %d", v.NumCells(), netw.NumCells())
	}
}
