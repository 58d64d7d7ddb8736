package main

import (
	"strings"
	"testing"
	"time"

	fireledger "repro"
	"repro/internal/clientapi"
	"repro/internal/types"
)

// shortRun boots the workload's cluster and drives it for a short window.
func shortRun(t *testing.T, name string, tr *tracer, epoch time.Time) *run {
	t.Helper()
	wl, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	r, err := boot(wl, 7, 0, epoch, tr, t.TempDir())
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(r.close)
	r.drive(1)
	return r
}

func TestWorkloadsShort(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r := shortRun(t, wl.name, nil, time.Now())
			res, errs := r.finish()
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("checks failed (%d of %d): %v", res.Failed, res.Attempted, errs)
			}
			s := r.summarize()
			if s.commits == 0 || len(s.lat) == 0 {
				t.Fatalf("no commits in the window")
			}
			if wl.crashNode >= 0 && len(s.crashLat) == 0 {
				t.Fatalf("no writes due after the crash committed")
			}
			if wl.kv && (len(r.reads) == 0 || len(s.streamLag) == 0) {
				t.Fatalf("kv run made %d reads and saw %d streamed blocks", len(r.reads), len(s.streamLag))
			}
		})
	}
}

func TestTracedRunCriticalPath(t *testing.T) {
	epoch := time.Now()
	tr := newTracer(epoch)
	r := shortRun(t, "ledger-open", tr, epoch)
	res, errs := r.finish()
	if !res.Correct {
		t.Fatalf("checks failed: %v", errs)
	}
	m, err := r.layerMetrics(1, t.TempDir())
	if err != nil {
		t.Fatalf("layer metrics: %v", err)
	}
	for name, v := range r.criticalPath().metrics() {
		m[name] = v
	}
	for _, name := range []string{"core.gap_bc_ms", "flo.pool_wait_ms_p50", "types.block_bytes", "flcrypto.verify_us_single", "store.append_us_per_block"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	// The stages telescope: with every span complete, they add up to the
	// mean commit latency.
	if f := m["path.complete_frac"].Value; f < 0.99 {
		t.Fatalf("only %.3f of the transactions have complete spans", f)
	}
	if res := m["path.residual_ms"].Value; res > 0.01 || res < -0.01 {
		t.Fatalf("residual %.4f ms with complete spans", res)
	}
}

// A write whose receipt arrives while an earlier write of the same session
// is still pending is stamped when its own receipt arrives, and frees its
// closed-loop slot then; the earlier write fails only at the drain's end.
func TestReceiptStampedOnArrival(t *testing.T) {
	r := &run{epoch: time.Now(), drained: make(chan struct{})}
	s := &session{id: 1}
	first, _, _ := clientapi.NewPending(types.Transaction{Client: 1, Seq: 1})
	second, _, resolve := clientapi.NewPending(types.Transaction{Client: 1, Seq: 2})
	early, late := &txRec{client: 1, seq: 1}, &txRec{client: 1, seq: 2}
	released := make(chan struct{})
	r.await(s, early, first, nil)
	r.await(s, late, second, func() { close(released) })
	resolve(fireledger.Receipt{Worker: 0, Round: 9}, nil)
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("a committed write waited on an earlier pending one")
	}
	if late.doneNs == 0 || late.round != 9 || late.failed {
		t.Fatalf("later write not stamped at its receipt: %+v", late)
	}
	close(r.drained)
	r.waits.Wait()
	if !early.failed || r.failed != 1 {
		t.Fatalf("unresolved write: failed=%v, run failures %d", early.failed, r.failed)
	}
}

func TestTamperedReceiptDetected(t *testing.T) {
	r := shortRun(t, "ledger-open", nil, time.Now())
	var victim *txRec
	for _, rec := range r.allRecs() {
		if rec.doneNs != 0 && !rec.failed {
			victim = rec
		}
	}
	if victim == nil {
		t.Fatal("no committed write")
	}
	victim.hash[0] ^= 0xff
	res, errs := r.finish()
	if res.Correct || res.Failed == 0 {
		t.Fatal("a tampered receipt hash passed the checks")
	}
	if !strings.Contains(strings.Join(errs, "\n"), "receipt hash") {
		t.Fatalf("want a receipt-hash failure, got %v", errs)
	}
	victim.hash[0] ^= 0xff
	victim.round++
	if err := r.audit.checkReceipt(victim); err == nil {
		t.Fatal("a receipt naming the wrong round passed the checks")
	}
}

func TestSkippedStreamPositionDetected(t *testing.T) {
	s := newStreamCheck(2)
	for _, p := range []fireledger.Cursor{{Worker: 0, Round: 1}, {Worker: 1, Round: 1}, {Worker: 0, Round: 2}} {
		if err := s.observe(p.Worker, p.Round); err != nil {
			t.Fatalf("in-order position rejected: %v", err)
		}
	}
	if err := s.observe(0, 3); err == nil {
		t.Fatal("skipping worker 1 round 2 was not detected")
	}
	s = newStreamCheck(1)
	if err := s.observe(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.observe(0, 1); err == nil {
		t.Fatal("a repeated position was not detected")
	}
}

func TestWrongReadValueDetected(t *testing.T) {
	h := newKeyHistory()
	first, second, third := &txRec{seq: 1}, &txRec{seq: 2}, &txRec{seq: 3}
	h.add(5, []byte("first"), first)
	h.add(5, []byte("second"), second)
	h.add(5, []byte("third"), third)
	// The ledger ordered the third write before the second (a lease
	// expiry can reorder a client's writes): reading after the second must
	// not return the third's value, and may return the first's only if it
	// was ordered later.
	order := map[*txRec]uint64{third: 10, second: 20, first: 30}
	pos := func(r *txRec) (uint64, bool) { p, ok := order[r]; return p, ok }
	read := func(value string, found bool) error {
		return h.checkRead(readObs{key: 5, anchor: second, value: []byte(value), found: found}, pos)
	}
	if err := read("second", true); err != nil {
		t.Fatalf("the written value was rejected: %v", err)
	}
	if err := read("first", true); err != nil {
		t.Fatalf("a value the ledger ordered later was rejected: %v", err)
	}
	if err := read("third", true); err == nil {
		t.Fatal("a stale value (ordered before the anchoring write) was not detected")
	}
	if err := read("bogus", true); err == nil {
		t.Fatal("a value never written was not detected")
	}
	if err := read("", false); err == nil {
		t.Fatal("a missing key was not detected")
	}

	// Scans: a value never written is caught at once.
	r := &run{hist: h}
	anchor := &txRec{key: 5}
	if err := r.checkScan(anchor, []fireledger.Entry{{Key: keyName(5), Value: []byte("second")}}); err != nil {
		t.Fatalf("a correct scan was rejected: %v", err)
	}
	if err := r.checkScan(anchor, []fireledger.Entry{{Key: keyName(5), Value: []byte("forged")}}); err == nil {
		t.Fatal("a scan returning a wrong value was not detected")
	}
}

// The medians are taken over the least contended sub-runs, in the order
// they ran, and only sub-runs at most maxContention count as undisturbed.
func TestKeptLeastContended(t *testing.T) {
	m := newMeasurement()
	for i, load := range []float64{0.30, 0.00, 0.10, 0.02, 0.05} {
		m.runs = append(m.runs, subResult{load: load, ms: map[string]metric{"x": {float64(i), "count"}}})
	}
	var order []float64
	for _, s := range m.kept(3) {
		order = append(order, s.ms["x"].Value)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("kept sub-runs %v, want [1 3 4]", order)
	}
	if got := m.medians(m.kept(3))["x"].Value; got != 3 {
		t.Fatalf("median %v, want 3", got)
	}
	if k := m.undisturbed(); k != 3 {
		t.Fatalf("%d undisturbed sub-runs, want 3", k)
	}
	if keepCount(12) != 8 || keepCount(3) != 2 || keepCount(1) != 1 {
		t.Fatalf("keepCount(12, 3, 1) = %d, %d, %d", keepCount(12), keepCount(3), keepCount(1))
	}
}
