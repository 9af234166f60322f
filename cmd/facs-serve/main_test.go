package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"facs"
	icac "facs/internal/cac"
	iserve "facs/internal/serve"
	ishard "facs/internal/shard"
)

// freshCalls is the process-wide call-ID table for a stream test.
func freshCalls(t *testing.T, netw *facs.Network) *callTable {
	t.Helper()
	calls, err := newCallTable(netw)
	if err != nil {
		t.Fatal(err)
	}
	return calls
}

// carrying counts the calls with the given ID across the network.
func carrying(netw *facs.Network, id int) int {
	n := 0
	for _, bs := range netw.Stations() {
		for _, c := range bs.HeldCalls() {
			if c.ID == id {
				n++
			}
		}
	}
	return n
}

// decodeLines parses every NDJSON output line by request id.
func decodeLines(t *testing.T, out string) map[int]wireResponse {
	t.Helper()
	got := map[int]wireResponse{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var r wireResponse
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad output line %q: %v", line, err)
		}
		got[r.ID] = r
	}
	return got
}

func TestStdinStreamDecides(t *testing.T) {
	in := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"video","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"op":"tick","now":5}`,
		`{"id":3,"class":"text","x":100,"y":50,"heading":10,"speed":30,"now":6}`,
		`{"op":"release","id":1,"now":7}`,
		`{"id":4,"class":"bogus","station":0,"speed":1,"distance":1}`,
		`{"id":5,"class":"text","station":99,"speed":1,"distance":1}`,
	}, "\n") + "\n"

	var out, errw bytes.Buffer
	if err := run([]string{"-batch", "4"}, strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := decodeLines(t, out.String())
	// Request 1 also receives a release op; depending on interleaving
	// its map entry may be the release outcome, so only its presence is
	// asserted. Requests 2 and 3 must carry clean decisions.
	if _, ok := got[1]; !ok {
		t.Fatalf("no response for request 1 (out: %s)", out.String())
	}
	for _, id := range []int{2, 3} {
		r, ok := got[id]
		if !ok {
			t.Fatalf("no response for request %d (out: %s)", id, out.String())
		}
		if r.Error != "" {
			t.Fatalf("request %d failed: %s", id, r.Error)
		}
		if r.Decision != "accept" && r.Decision != "reject" {
			t.Fatalf("request %d has decision %q", id, r.Decision)
		}
		if r.Batch < 1 {
			t.Fatalf("request %d reports batch %d", id, r.Batch)
		}
	}
	if r := got[4]; r.Error == "" {
		t.Fatalf("bogus class should error, got %+v", r)
	}
	if r := got[5]; r.Error == "" {
		t.Fatalf("out-of-range station should error, got %+v", r)
	}
	if !strings.Contains(errw.String(), "decided") {
		t.Fatalf("stats summary missing from stderr: %q", errw.String())
	}
}

func TestStdinReleaseUnknownCall(t *testing.T) {
	in := `{"op":"release","id":42,"now":1}` + "\n"
	var out, errw bytes.Buffer
	if err := run(nil, strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if r := decodeLines(t, out.String())[42]; !strings.Contains(r.Error, "unknown") {
		t.Fatalf("expected unknown-call error, got %+v", r)
	}
}

func TestFlagValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-compiled", "-controller", "cs"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("-compiled with a non-facs controller should fail")
	}
	if err := run([]string{"-controller", "nope"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("unknown controller should fail")
	}
	if err := run([]string{"-batch", "0"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("zero batch should fail")
	}
	if err := run([]string{"-grid", "8"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("-grid without -compiled should fail")
	}
	if err := run([]string{"-shards", "0"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("zero shards should fail")
	}
	if err := run([]string{"-max-inflight", "0"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("zero max-inflight should fail")
	}
}

func TestShardsBoundedByCells(t *testing.T) {
	var out, errw bytes.Buffer
	// A rings-2 deployment has 19 cells: a 20th shard could never own one.
	err := run([]string{"-rings", "2", "-shards", "20"}, strings.NewReader(""), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "exceeds the deployment's 19 cells") {
		t.Fatalf("-shards above the cell count should fail clearly, got %v", err)
	}
	if err := run([]string{"-rings", "2", "-shards", "19", "-controller", "cs"},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatalf("-shards equal to the cell count must stay valid: %v", err)
	}
}

func TestElasticShardingFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-partition", "bogus"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("unknown -partition should fail")
	}
	if err := run([]string{"-rebalance-ticks", "-1"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("negative -rebalance-ticks should fail")
	}
	in := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"text","station":5,"speed":10,"angle":0,"distance":1}`,
		`{"op":"tick","now":1}`,
		`{"id":3,"class":"video","station":11,"speed":40,"angle":5,"distance":1.5}`,
	}, "\n") + "\n"
	if err := run([]string{"-shards", "4", "-rings", "2", "-controller", "guard",
		"-partition", "blocks", "-rebalance-ticks", "1", "-rebalance-max-moves", "2", "-no-interest-scope"},
		strings.NewReader(in), &out, &errw); err != nil {
		t.Fatalf("elastic sharded serving run: %v", err)
	}
	got := decodeLines(t, out.String())
	for _, id := range []int{1, 2, 3} {
		if r, ok := got[id]; !ok || r.Error != "" {
			t.Fatalf("request %d: %+v (out: %s)", id, r, out.String())
		}
	}
	if !strings.Contains(errw.String(), "4 shards") {
		t.Fatalf("stats summary should name the shard count: %q", errw.String())
	}
}

// TestSCCServeReportsLedgerStats pins the observability satellite: an
// SCC stream run's end-of-stream line carries the ledger counter
// summary (guard-band fallbacks, ghost exchange activity) that is
// otherwise unreachable behind the engine's decision loops, and on a
// 4-shard run the line aggregates every shard's ledger.
func TestSCCServeReportsLedgerStats(t *testing.T) {
	in := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"video","station":1,"speed":20,"angle":0,"distance":1}`,
		`{"op":"tick","now":5}`,
		`{"id":3,"class":"text","station":2,"speed":30,"angle":0,"distance":1}`,
	}, "\n") + "\n"
	var out, errw bytes.Buffer
	if err := run([]string{"-controller", "scc", "-shards", "2", "-rings", "2"},
		strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scc-ledger:", "guard-band fallbacks", "ghost applies"} {
		if !strings.Contains(errw.String(), want) {
			t.Fatalf("end-of-stream line missing %q: %q", want, errw.String())
		}
	}

	out.Reset()
	errw.Reset()
	if err := run([]string{"-controller", "scc", "-shards", "4", "-rings", "2"},
		strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	// One tick barrier: each of the 4 shard ledgers exports once.
	if !regexp.MustCompile(`4 shards: .*scc-ledger: .* 4 exports`).MatchString(errw.String()) {
		t.Fatalf("4-shard end-of-stream line should aggregate 4 ledger exports: %q", errw.String())
	}
}

// TestShardedStdinStream runs the NDJSON path on a multi-shard engine.
func TestShardedStdinStream(t *testing.T) {
	in := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"text","station":3,"speed":10,"angle":0,"distance":1}`,
		`{"id":3,"class":"video","station":6,"speed":40,"angle":5,"distance":1.5}`,
	}, "\n") + "\n"
	var out, errw bytes.Buffer
	if err := run([]string{"-shards", "4", "-controller", "cs"}, strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := decodeLines(t, out.String())
	for _, id := range []int{1, 2, 3} {
		r, ok := got[id]
		if !ok || r.Error != "" || r.Decision != "accept" || !r.Committed {
			t.Fatalf("request %d: %+v (out: %s)", id, r, out.String())
		}
	}
	if !strings.Contains(errw.String(), "4 shards") {
		t.Fatalf("stats summary should name the shard count: %q", errw.String())
	}
}

// TestBackpressureShedsWhenFull pins the flow-control contract: with a
// one-request window and a slow batcher, the second request line is
// not buffered — it is answered immediately with the documented
// queue-full error.
func TestBackpressureShedsWhenFull(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        1,
		NewController: func(ishard.View) (icac.Controller, error) { return facs.CompleteSharing{}, nil },
		MaxBatch:      64,
		MaxDelay:      300 * time.Millisecond, // hold the first request undecided
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := strings.Join([]string{
		`{"id":1,"class":"text","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"text","station":0,"speed":10,"angle":0,"distance":1}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := serveStream(eng, netw, strings.NewReader(in), &out, newIntake(1), freshCalls(t, netw)); err != nil {
		t.Fatal(err)
	}
	got := decodeLines(t, out.String())
	if r := got[1]; r.Error != "" || r.Decision != "accept" {
		t.Fatalf("request 1 should decide cleanly: %+v", r)
	}
	if r := got[2]; !strings.Contains(r.Error, "intake queue full") {
		t.Fatalf("request 2 should be shed with the queue-full error, got %+v", r)
	}
}

// TestHandoffOpOverStream drives the wire-level handoff protocol: a
// committed call moves to the cell covering its new position; an
// unknown call errors.
func TestHandoffOpOverStream(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        3,
		NewController: func(ishard.View) (icac.Controller, error) { return facs.CompleteSharing{}, nil },
		Commit:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stations := netw.Stations()
	src, dst := stations[0], stations[1]

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- serveStream(eng, netw, server, server, newIntake(64), freshCalls(t, netw))
		server.Close()
	}()

	w := bufio.NewWriter(client)
	sc := bufio.NewScanner(client)
	readLine := func() wireResponse {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Admit at the source cell's centre, await the committed response.
	fmt.Fprintf(w, `{"id":7,"class":"voice","x":%g,"y":%g,"heading":0,"speed":30}`+"\n", src.Pos().X, src.Pos().Y)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readLine(); r.ID != 7 || !r.Committed {
		t.Fatalf("admission response: %+v", r)
	}

	// Hand it off to the neighbouring cell's centre.
	fmt.Fprintf(w, `{"op":"handoff","id":7,"x":%g,"y":%g,"heading":10,"speed":30,"now":5}`+"\n", dst.Pos().X, dst.Pos().Y)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readLine(); r.ID != 7 || !r.Committed || r.Decision != "accept" {
		t.Fatalf("handoff response: %+v", r)
	}
	if src.NumCalls() != 0 {
		t.Fatal("source still carries the call")
	}
	if held := dst.HeldCalls(); len(held) != 1 || held[0].ID != 7 {
		t.Fatalf("target carries %+v, want call 7", held)
	}

	// Unknown call and missing position both error.
	fmt.Fprintf(w, `{"op":"handoff","id":99,"x":%g,"y":%g}`+"\n", dst.Pos().X, dst.Pos().Y)
	fmt.Fprintln(w, `{"op":"handoff","id":7}`)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readLine(); !strings.Contains(r.Error, "unknown") {
		t.Fatalf("unknown-call handoff should error: %+v", r)
	}
	if r := readLine(); !strings.Contains(r.Error, "x/y") {
		t.Fatalf("positionless handoff should error: %+v", r)
	}

	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Unknown calls and malformed lines are shed at the wire layer, so
	// only the successful transfer reaches the engine's protocol worker.
	if st := eng.Stats(); st.Handoffs != 1 || st.Errs != 0 || st.CrossShard != 1 {
		t.Fatalf("engine handoff counters: %+v", st)
	}
}

// TestServeStreamOverConnection exercises the same path TCP connections
// take, over an in-memory duplex pipe.
func TestServeStreamOverConnection(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := iserve.New(iserve.Config{Controller: facs.CompleteSharing{}, MaxBatch: 4, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- serveStream(svc, netw, server, server, newIntake(1024), freshCalls(t, netw))
		server.Close()
	}()

	w := bufio.NewWriter(client)
	for i := 1; i <= 6; i++ {
		fmt.Fprintf(w, `{"id":%d,"class":"text","station":%d,"speed":20,"angle":0,"distance":1}`+"\n", i, i%7)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(client)
	seen := map[int]bool{}
	for len(seen) < 6 && sc.Scan() {
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Error != "" {
			t.Fatalf("request %d failed: %s", r.ID, r.Error)
		}
		if r.Decision != "accept" {
			t.Fatalf("complete sharing should accept text on an empty network, got %+v", r)
		}
		seen[r.ID] = true
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Decided != 6 || st.Committed != 6 {
		t.Fatalf("stats = %+v, want 6 decided and committed", st)
	}
}

// gatedController accepts every request, but holds the decision of
// call gatedID until gate closes, so that call stays in flight.
type gatedController struct {
	gate chan struct{}
}

const gatedID = 8

func (g *gatedController) Name() string { return "gated" }

func (g *gatedController) Decide(req icac.Request) (icac.Decision, error) {
	if req.Call.ID == gatedID {
		<-g.gate
	}
	return icac.Accept, nil
}

// TestWireDuplicateIDRejected pins the wire's ID contract: a request
// line whose id is in flight, or live after its commit, is answered
// with the duplicate-id error line and never decided, so one ID never
// names two live calls; once the call is released the ID is free again.
func TestWireDuplicateIDRejected(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &gatedController{gate: make(chan struct{})}
	svc, err := iserve.New(iserve.Config{Controller: ctrl, MaxBatch: 4, MaxDelay: -1, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	openGate := sync.OnceFunc(func() { close(ctrl.gate) })
	defer openGate() // a failed read must not leave the loop blocked at Close

	client, server := net.Pipe()
	if err := client.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- serveStream(svc, netw, server, server, newIntake(64), freshCalls(t, netw))
		server.Close()
	}()
	w := bufio.NewWriter(client)
	sc := bufio.NewScanner(client)
	send := func(line string) {
		t.Helper()
		fmt.Fprintln(w, line)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	readLine := func() wireResponse {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	request := fmt.Sprintf(`{"id":%d,"class":"voice","station":0,"speed":20,"angle":0,"distance":1}`, gatedID)
	isDuplicate := func(r wireResponse) bool {
		return r.ID == gatedID && r.Decision == "" && strings.HasPrefix(r.Error, "duplicate id")
	}

	// In flight: the first line's decision is gated, so the second line
	// meets a pending claim.
	send(request)
	send(request)
	if r := readLine(); !isDuplicate(r) {
		t.Fatalf("duplicate of an in-flight id: %+v, want the duplicate-id error line", r)
	}
	openGate()
	if r := readLine(); r.ID != gatedID || !r.Committed {
		t.Fatalf("gated request: %+v, want committed", r)
	}

	// Live: the committed call still owns the ID.
	send(request)
	if r := readLine(); !isDuplicate(r) {
		t.Fatalf("duplicate of a live id: %+v, want the duplicate-id error line", r)
	}

	// Released: the ID is free for a new call.
	send(fmt.Sprintf(`{"op":"release","id":%d}`, gatedID))
	send(request)
	if r := readLine(); r.ID != gatedID || !r.Committed || r.Error != "" {
		t.Fatalf("request after release: %+v, want committed", r)
	}

	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := carrying(netw, gatedID); n != 1 {
		t.Fatalf("stations carry %d calls with id %d, want 1", n, gatedID)
	}
	if st := svc.Stats(); st.Decided != 2 || st.Committed != 2 || st.OpErrs != 0 {
		t.Fatalf("stats = %+v, want 2 decided and committed, no op errors", st)
	}
}

// TestWireIDsUniqueAcrossStreams runs several streams over one engine
// and one call table at once, every stream sending the same IDs: each
// ID is decided for exactly one stream, every other copy gets the
// duplicate-id error line, and no station ever carries an ID twice.
func TestWireIDsUniqueAcrossStreams(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1, CapacityBU: 10000})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        2,
		NewController: func(ishard.View) (icac.Controller, error) { return facs.CompleteSharing{}, nil },
		Commit:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	calls := freshCalls(t, netw)
	const streams, ids = 4, 50
	outs := make([]bytes.Buffer, streams)
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		var in strings.Builder
		for id := 1; id <= ids; id++ {
			fmt.Fprintf(&in, `{"id":%d,"class":"text","station":%d,"speed":20,"angle":0,"distance":1}`+"\n", id, (id+s)%7)
		}
		go func(s int, in string) {
			errs <- serveStream(eng, netw, strings.NewReader(in), &outs[s], newIntake(256), calls)
		}(s, in.String())
	}
	for s := 0; s < streams; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	decided := map[int]int{}
	for s := range outs {
		for _, line := range strings.Split(strings.TrimSpace(outs[s].String()), "\n") {
			var r wireResponse
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("stream %d: bad line %q: %v", s, line, err)
			}
			switch {
			case r.Error == "" && r.Committed:
				decided[r.ID]++
			case !strings.HasPrefix(r.Error, "duplicate id"):
				t.Fatalf("stream %d: unexpected line %+v", s, r)
			}
		}
	}
	for id := 1; id <= ids; id++ {
		if decided[id] != 1 || carrying(netw, id) != 1 {
			t.Fatalf("id %d: committed on %d streams, carried %d times; want 1 and 1", id, decided[id], carrying(netw, id))
		}
	}
}
