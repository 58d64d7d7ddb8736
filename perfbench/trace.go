package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	fireledger "repro"
	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// Fig 9 event indices of a block span: A–D are the core events, E is the
// merged delivery on node 0.
const (
	evA = iota // block body left the proposer
	evB        // header entered the consensus path (proposer)
	evC        // tentative decision on node 0
	evD        // definite decision on node 0
	evE        // merged delivery on node 0
	numEvents
)

type blockKey struct {
	w     uint32
	round uint64
}

// blockSpan holds the A–E timestamps (ns since the tracer epoch, 0 = not
// seen) of one (worker, round).
type blockSpan struct {
	ev [numEvents]int64
}

// sendSpan is one Endpoint.Send or Endpoint.Broadcast call.
type sendSpan struct {
	node  int8
	bcast bool
	msgs  int8
	start int64
	dur   int64
	bytes int32
}

// State-backend operations a stateSpan records.
const (
	opApply = iota
	opSnapshot
	opGet
)

var opNames = [...]string{"apply", "snapshot", "get"}

type stateSpan struct {
	node  int8
	op    int8
	n     int32 // transactions in an ApplyBatch
	start int64
	dur   int64
}

// tracer keeps spans in memory for one traced run; write dumps them. All
// timestamps are nanoseconds since epoch on the monotonic clock, the same
// clock the load generator stamps transactions with.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	blocks map[blockKey]*blockSpan
	sends  []sendSpan
	state  []stateSpan
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, blocks: make(map[blockKey]*blockSpan)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// event records a lifecycle event seen by node. A and B are taken from
// whichever node proposed the round (the first to report it); C, D and E
// from node 0.
func (t *tracer) event(node int, w uint32, round uint64, ev int) {
	if node != 0 && ev > evB {
		return
	}
	ts := t.now()
	t.mu.Lock()
	b := t.blocks[blockKey{w, round}]
	if b == nil {
		b = &blockSpan{}
		t.blocks[blockKey{w, round}] = b
	}
	if b.ev[ev] == 0 {
		b.ev[ev] = ts
	}
	t.mu.Unlock()
}

func (t *tracer) block(k blockKey) (blockSpan, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.blocks[k]
	if b == nil {
		return blockSpan{}, false
	}
	return *b, true
}

// tracedEndpoint times every Send/Broadcast of one node and counts the wire
// messages and bytes they cause (self-deliveries excluded).
type tracedEndpoint struct {
	transport.Endpoint
	node int
	t    *tracer
}

func (e *tracedEndpoint) Send(to flcrypto.NodeID, payload []byte) error {
	start := e.t.now()
	err := e.Endpoint.Send(to, payload)
	msgs := 1
	if to == e.ID() {
		msgs = 0
	}
	e.t.sent(sendSpan{node: int8(e.node), msgs: int8(msgs), start: start, dur: e.t.now() - start, bytes: int32(len(payload))})
	return err
}

func (e *tracedEndpoint) Broadcast(payload []byte) error {
	start := e.t.now()
	err := e.Endpoint.Broadcast(payload)
	e.t.sent(sendSpan{node: int8(e.node), bcast: true, msgs: int8(e.N() - 1), start: start, dur: e.t.now() - start, bytes: int32(len(payload))})
	return err
}

func (t *tracer) sent(s sendSpan) {
	t.mu.Lock()
	t.sends = append(t.sends, s)
	t.mu.Unlock()
}

// tracedState times ApplyBatch, Snapshot and Get on one node's backend.
type tracedState struct {
	fireledger.StateBackend
	node int
	t    *tracer
}

func (s *tracedState) ApplyBatch(txs []types.Transaction) {
	start := s.t.now()
	s.StateBackend.ApplyBatch(txs)
	s.t.stateOp(stateSpan{node: int8(s.node), op: opApply, n: int32(len(txs)), start: start, dur: s.t.now() - start})
}

func (s *tracedState) Snapshot() []byte {
	start := s.t.now()
	b := s.StateBackend.Snapshot()
	s.t.stateOp(stateSpan{node: int8(s.node), op: opSnapshot, start: start, dur: s.t.now() - start})
	return b
}

func (s *tracedState) Get(key string) ([]byte, bool) {
	start := s.t.now()
	v, ok := s.StateBackend.Get(key)
	s.t.stateOp(stateSpan{node: int8(s.node), op: opGet, start: start, dur: s.t.now() - start})
	return v, ok
}

func (t *tracer) stateOp(s stateSpan) {
	t.mu.Lock()
	t.state = append(t.state, s)
	t.mu.Unlock()
}

// spanSample is how many transaction and send spans share one written
// line: the file keeps every block and state span but only every
// spanSample-th transaction and send span, so a saturated run stays a few
// megabytes. Statistics are computed over all spans before sampling.
const spanSample = 10

// writeSpans dumps the spans of a traced run as JSON lines: one per block
// span (keyed by worker and round), per sampled transaction span (linked to
// its block span through the receipt's worker and round), per sampled
// send, and per state-backend call.
func (t *tracer) writeSpans(path string, txs []*txRec) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for k, b := range t.blocks {
		_ = enc.Encode(map[string]any{"kind": "block", "worker": k.w, "round": k.round,
			"a": b.ev[evA], "b": b.ev[evB], "c": b.ev[evC], "d": b.ev[evD], "e": b.ev[evE]})
	}
	for i, s := range t.sends {
		if i%spanSample == 0 {
			_ = enc.Encode(map[string]any{"kind": "send", "node": s.node, "broadcast": s.bcast,
				"start": s.start, "end": s.start + s.dur, "msgs": s.msgs, "bytes": s.bytes})
		}
	}
	for _, s := range t.state {
		_ = enc.Encode(map[string]any{"kind": "state", "op": opNames[s.op], "node": s.node,
			"start": s.start, "end": s.start + s.dur, "txs": s.n})
	}
	t.mu.Unlock()
	for i, r := range txs {
		if i%spanSample != 0 || r.doneNs == 0 {
			continue
		}
		_ = enc.Encode(map[string]any{"kind": "tx", "client": r.client, "seq": r.seq,
			"due": r.dueNs, "submit": r.sentNs, "ack": r.ackNs, "commit": r.doneNs,
			"worker": r.w, "round": r.round, "block_hash": fmt.Sprintf("%x", r.hash[:])})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}

// pathStages names the telescoped critical-path stages of one transaction,
// from the moment it was due to its COMMIT receipt.
var pathStages = [...]string{"due_submit", "submit_ack", "ack_a", "a_b", "b_c", "c_d", "d_e", "e_commit"}

// pathSums accumulates the critical path over transactions, possibly from
// several runs: per-stage sums over the transactions whose block span is
// complete, and the commit latency over all committed ones.
type pathSums struct {
	stage    [len(pathStages)]float64
	complete int
	latency  float64
	commits  int
	window   int
}

func (p *pathSums) add(o pathSums) {
	for i := range p.stage {
		p.stage[i] += o.stage[i]
	}
	p.complete += o.complete
	p.latency += o.latency
	p.commits += o.commits
	p.window += o.window
}

// metrics returns the stage means, the mean commit latency and the
// residual between them (ms). The stages telescope, so the residual is the
// part of the latency that incomplete spans leave unattributed.
func (p pathSums) metrics() map[string]metric {
	m := map[string]metric{}
	sum := 0.0
	for i, name := range pathStages {
		mean := ratio(p.stage[i], float64(p.complete))
		m["path."+name+"_ms"] = metric{mean, "ms"}
		sum += mean
	}
	mean := ratio(p.latency, float64(p.commits))
	m["path.commit_mean_ms"] = metric{mean, "ms"}
	m["path.residual_ms"] = metric{mean - sum, "ms"}
	m["path.complete_frac"] = metric{ratio(float64(p.complete), float64(p.window)), "fraction"}
	return m
}

func (p pathSums) print() {
	m := p.metrics()
	fmt.Printf("critical path (mean ms over %d txs):", p.complete)
	sum := 0.0
	for _, name := range pathStages {
		v := m["path."+name+"_ms"].Value
		fmt.Printf(" %s %.3f", name, v)
		sum += v
	}
	fmt.Printf(" | sum %.3f, mean commit %.3f, residual %.3f\n", sum, m["path.commit_mean_ms"].Value, m["path.residual_ms"].Value)
}

// criticalPath splits every committed transaction of txs whose block span
// is complete into the stages of pathStages.
func criticalPath(t *tracer, txs []*txRec) pathSums {
	p := pathSums{window: len(txs)}
	for _, r := range txs {
		if r.doneNs == 0 || r.failed {
			continue
		}
		p.latency += ms(r.doneNs - r.dueNs)
		p.commits++
		b, ok := t.block(blockKey{r.w, r.round})
		if !ok || r.ackNs == 0 {
			continue
		}
		ev := b.ev
		if ev[evA] == 0 || ev[evB] == 0 || ev[evC] == 0 || ev[evD] == 0 || ev[evE] == 0 {
			continue
		}
		points := [...]int64{r.dueNs, r.sentNs, r.ackNs, ev[evA], ev[evB], ev[evC], ev[evD], ev[evE], r.doneNs}
		for i := range p.stage {
			p.stage[i] += ms(points[i+1] - points[i])
		}
		p.complete++
	}
	return p
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
