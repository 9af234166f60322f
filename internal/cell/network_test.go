package cell

import (
	"errors"
	"testing"

	"facs/internal/geo"
	"facs/internal/traffic"
)

func newNet(t *testing.T, rings int) *Network {
	t.Helper()
	n, err := NewNetwork(NetworkConfig{Rings: rings})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     NetworkConfig
		wantErr bool
	}{
		{"defaults", NetworkConfig{}, false},
		{"explicit", NetworkConfig{Rings: 2, CellRadiusM: 1000, CapacityBU: 40}, false},
		{"negative rings", NetworkConfig{Rings: -1}, true},
		{"negative radius", NetworkConfig{CellRadiusM: -1}, true},
		{"negative capacity", NetworkConfig{CapacityBU: -1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewNetwork(tc.cfg)
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("NewNetwork = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

func TestNetworkTopology(t *testing.T) {
	n := newNet(t, 2)
	if got, want := n.NumCells(), 1+3*2*3; got != want {
		t.Fatalf("NumCells = %d, want %d", got, want)
	}
	centre, ok := n.At(geo.Hex{Q: 0, R: 0})
	if !ok {
		t.Fatal("centre cell missing")
	}
	if centre.Capacity() != DefaultCapacityBU {
		t.Fatalf("capacity = %d, want %d", centre.Capacity(), DefaultCapacityBU)
	}
	if got := len(n.Neighbors(geo.Hex{Q: 0, R: 0})); got != 6 {
		t.Fatalf("centre neighbours = %d, want 6", got)
	}
	// A corner cell of the outer ring has fewer in-network neighbours.
	if got := len(n.Neighbors(geo.Hex{Q: 2, R: 0})); got != 3 {
		t.Fatalf("corner neighbours = %d, want 3", got)
	}
	if _, ok := n.At(geo.Hex{Q: 5, R: 5}); ok {
		t.Fatal("hex outside deployment should be absent")
	}
}

func TestNetworkStationsDeterministicOrder(t *testing.T) {
	a := newNet(t, 2)
	b := newNet(t, 2)
	sa, sb := a.Stations(), b.Stations()
	if len(sa) != len(sb) {
		t.Fatal("station counts differ")
	}
	for i := range sa {
		if sa[i].Hex() != sb[i].Hex() {
			t.Fatalf("station order differs at %d: %v vs %v", i, sa[i].Hex(), sb[i].Hex())
		}
	}
	for i := 1; i < len(sa); i++ {
		prev, cur := sa[i-1].Hex(), sa[i].Hex()
		if prev.Q > cur.Q || (prev.Q == cur.Q && prev.R >= cur.R) {
			t.Fatalf("stations not in (Q,R) order at %d: %v then %v", i, prev, cur)
		}
	}
}

func TestStationAt(t *testing.T) {
	n := newNet(t, 1)
	centre, err := n.StationAt(geo.Point{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if centre.Hex() != (geo.Hex{Q: 0, R: 0}) {
		t.Fatalf("StationAt(origin) = %v", centre.Hex())
	}
	// The centre of every deployed cell maps back to that cell.
	for _, bs := range n.Stations() {
		got, err := n.StationAt(bs.Pos())
		if err != nil {
			t.Fatal(err)
		}
		if got.Hex() != bs.Hex() {
			t.Fatalf("StationAt(%v) = %v, want %v", bs.Pos(), got.Hex(), bs.Hex())
		}
	}
	// Far outside the deployment.
	if _, err := n.StationAt(geo.Point{X: 1e9, Y: 1e9}); !errors.Is(err, ErrOutsideCoverage) {
		t.Fatalf("err = %v, want ErrOutsideCoverage", err)
	}
}

func TestNetworkCapacityAggregates(t *testing.T) {
	n := newNet(t, 1)
	if got, want := n.TotalCapacity(), 7*DefaultCapacityBU; got != want {
		t.Fatalf("TotalCapacity = %d, want %d", got, want)
	}
	if n.TotalUsed() != 0 {
		t.Fatal("fresh network should be empty")
	}
	centre, _ := n.At(geo.Hex{Q: 0, R: 0})
	if _, err := centre.Admit(Call{ID: 1, Class: traffic.Video, BU: 10}); err != nil {
		t.Fatal(err)
	}
	if n.TotalUsed() != 10 {
		t.Fatalf("TotalUsed = %d, want 10", n.TotalUsed())
	}
}

func TestHandoffMovesCall(t *testing.T) {
	n := newNet(t, 1)
	src, _ := n.At(geo.Hex{Q: 0, R: 0})
	dstHex := geo.Hex{Q: 1, R: 0}
	dst, _ := n.At(dstHex)
	h, err := src.Admit(Call{ID: 1, Class: traffic.Voice, BU: 5, AdmittedAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	nh, err := n.Handoff(h, src.Hex(), dstHex, 42)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumCalls() != 0 || dst.NumCalls() != 1 {
		t.Fatal("call did not move")
	}
	if _, ok := src.Call(h); ok {
		t.Fatal("source handle still resolves after the handoff")
	}
	moved, _ := dst.Call(nh)
	if moved.ID != 1 || !moved.Handoff || moved.AdmittedAt != 42 {
		t.Fatalf("handoff metadata wrong: %+v", moved)
	}
	if src.Used() != 0 || dst.Used() != 5 {
		t.Fatalf("bandwidth not transferred: src=%d dst=%d", src.Used(), dst.Used())
	}
}

func TestHandoffFailures(t *testing.T) {
	n := newNet(t, 1)
	src, _ := n.At(geo.Hex{Q: 0, R: 0})
	dstHex := geo.Hex{Q: 1, R: 0}
	dst, _ := n.At(dstHex)
	h, err := src.Admit(Call{ID: 1, Class: traffic.Video, BU: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown call: the zero handle, and a handle the source never
	// minted (foreign: the target's own).
	if _, err := n.Handoff(Handle{}, src.Hex(), dstHex, 0); !errors.Is(err, ErrUnknownCall) {
		t.Fatalf("err = %v, want ErrUnknownCall", err)
	}
	foreign, err := dst.Admit(Call{ID: 1, Class: traffic.Text, BU: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handoff(foreign, src.Hex(), dstHex, 0); !errors.Is(err, ErrUnknownCall) {
		t.Fatalf("foreign handle: err = %v, want ErrUnknownCall", err)
	}
	if _, err := dst.Release(foreign); err != nil {
		t.Fatal(err)
	}
	// Unknown cells.
	if _, err := n.Handoff(h, geo.Hex{Q: 9, R: 9}, dstHex, 0); !errors.Is(err, ErrOutsideCoverage) {
		t.Fatalf("err = %v, want ErrOutsideCoverage", err)
	}
	if _, err := n.Handoff(h, src.Hex(), geo.Hex{Q: 9, R: 9}, 0); !errors.Is(err, ErrOutsideCoverage) {
		t.Fatalf("err = %v, want ErrOutsideCoverage", err)
	}
	// Target full: fill dst to the brim.
	for i := 0; i < 4; i++ {
		if _, err := dst.Admit(Call{ID: 100 + i, Class: traffic.Video, BU: 10}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = n.Handoff(h, src.Hex(), dstHex, 0)
	if !errors.Is(err, ErrInsufficientBandwidth) {
		t.Fatalf("err = %v, want ErrInsufficientBandwidth", err)
	}
	// The failed handoff must leave the call at the source, under the
	// same handle.
	if _, ok := src.Call(h); !ok {
		t.Fatal("failed handoff lost the call")
	}
	if src.Used() != 10 {
		t.Fatalf("source ledger corrupted: %d", src.Used())
	}
}

func TestNetworkLayoutAccessor(t *testing.T) {
	n := newNet(t, 0)
	if n.Layout().CellRadius != 2000 {
		t.Fatalf("layout radius = %v, want default 2000", n.Layout().CellRadius)
	}
	if n.NumCells() != 1 {
		t.Fatalf("0 rings should yield a single cell, got %d", n.NumCells())
	}
}
