package pbft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// DeliverFunc receives executed batches in sequence order. It runs on the
// replica's event loop and must not block; duplicate requests (possible
// across view changes) are filtered before delivery.
type DeliverFunc func(seq uint64, batch [][]byte)

// Config configures a Replica.
type Config struct {
	// Mux is the node's transport multiplexer.
	Mux *transport.Mux
	// Proto is the protocol tag this replica claims on the mux.
	Proto transport.ProtoID
	// Registry holds every replica's verification key.
	Registry *flcrypto.Registry
	// Priv is this replica's signing key.
	Priv flcrypto.PrivateKey
	// VerifyPool, when non-nil, moves inbound-envelope verification off the
	// event loop onto the transport mailbox goroutine (the event loop then
	// runs crypto-free) and routes it — and certificate checks — through the
	// pool's dedup cache. Nil preserves the fully synchronous path: every
	// signature verified on the event loop.
	VerifyPool *flcrypto.VerifyPool
	// Deliver receives executed batches.
	Deliver DeliverFunc
	// BatchSize caps requests per pre-prepare (default 256).
	BatchSize int
	// Window caps outstanding (proposed, unexecuted) sequence numbers
	// (default 64).
	Window int
	// ViewTimeout is the base leader-failure timeout; it doubles on each
	// consecutive failed view (default 400ms).
	ViewTimeout time.Duration
	// Tick is the housekeeping granularity (default 20ms).
	Tick time.Duration
	// KeepWindow is how many executed entries are retained to serve state
	// transfer (default 1024). It is also the maximum lag a replica can
	// recover from: entries older than lastExec−KeepWindow are gone
	// cluster-wide, so a replica that falls further behind than every
	// peer's window cannot be re-filled by fetch alone (full PBFT closes
	// this with application-state snapshots; FireLedger's own catch-up path
	// serves that role at the chain layer).
	KeepWindow uint64
}

func (c *Config) fillDefaults() {
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.ViewTimeout == 0 {
		c.ViewTimeout = 400 * time.Millisecond
	}
	if c.Tick == 0 {
		c.Tick = 20 * time.Millisecond
	}
	if c.KeepWindow == 0 {
		c.KeepWindow = 1024
	}
}

// Metrics exposes counters for the evaluation harness.
type Metrics struct {
	// BatchesDelivered counts executed batches.
	BatchesDelivered atomic.Uint64
	// RequestsDelivered counts executed (deduplicated) requests.
	RequestsDelivered atomic.Uint64
	// ViewChanges counts installed views beyond the initial one.
	ViewChanges atomic.Uint64
	// SignOps counts signature creations, for the Table 1 accounting.
	SignOps atomic.Uint64
	// VerifyOps counts signature verifications.
	VerifyOps atomic.Uint64
	// EntriesRetained gauges the protocol log size after the latest GC —
	// the bounded-memory guarantee of the checkpoint window.
	EntriesRetained atomic.Uint64
}

type voteKey struct {
	view   uint64
	digest flcrypto.Hash
}

// entry is the per-sequence-number consensus slot.
type entry struct {
	seq      uint64
	view     uint64 // view of the accepted pre-prepare
	digest   flcrypto.Hash
	batch    [][]byte
	pp       *signedRaw // accepted pre-prepare, verbatim, for certificates
	prepares map[voteKey]map[flcrypto.NodeID]signedRaw
	commits  map[voteKey]map[flcrypto.NodeID]signedRaw
	sentPrep bool
	sentComm bool
	executed bool
}

func newEntry(seq uint64) *entry {
	return &entry{
		seq:      seq,
		prepares: make(map[voteKey]map[flcrypto.NodeID]signedRaw),
		commits:  make(map[voteKey]map[flcrypto.NodeID]signedRaw),
	}
}

type event struct {
	from flcrypto.NodeID
	body []byte
	sig  flcrypto.Signature
	// verified marks envelopes already checked by the verify pool on the
	// inbound path, so the event loop does not re-verify them.
	verified bool
}

// Replica is one PBFT node. Create with NewReplica, then Start. All protocol
// state is owned by a single event-loop goroutine.
type Replica struct {
	cfg  Config
	id   flcrypto.NodeID
	n, f int

	events  chan event
	submits chan []byte
	stop    chan struct{}
	stopped sync.WaitGroup

	metrics Metrics

	// Event-loop-owned state below.
	view     uint64
	inVC     bool
	vcTarget uint64
	vcs      map[uint64]map[flcrypto.NodeID]signedRaw // view -> sender -> VIEW-CHANGE
	vcFails  uint                                     // consecutive failed view changes (timeout doubling)

	entries  map[uint64]*entry
	nextSeq  uint64 // leader: next sequence to assign
	lastExec uint64

	pool      map[flcrypto.Hash]*pooledReq // pending requests by digest
	poolOrder []flcrypto.Hash
	assigned  map[flcrypto.Hash]uint64 // request digest -> in-flight seq
	reqSeen   map[flcrypto.Hash]bool   // executed requests (dedup)

	maxCommittedSeen uint64
	deadline         time.Time // leader-failure deadline; zero when idle
	lastFetch        time.Time
}

// NewReplica creates a replica attached to cfg.Mux. Call Start to run it.
func NewReplica(cfg Config) *Replica {
	cfg.fillDefaults()
	r := &Replica{
		cfg:      cfg,
		id:       cfg.Mux.ID(),
		n:        cfg.Mux.N(),
		f:        (cfg.Mux.N() - 1) / 3,
		events:   make(chan event, 4096),
		submits:  make(chan []byte, 4096),
		stop:     make(chan struct{}),
		vcs:      make(map[uint64]map[flcrypto.NodeID]signedRaw),
		entries:  make(map[uint64]*entry),
		nextSeq:  1,
		pool:     make(map[flcrypto.Hash]*pooledReq),
		assigned: make(map[flcrypto.Hash]uint64),
		reqSeen:  make(map[flcrypto.Hash]bool),
	}
	cfg.Mux.Handle(cfg.Proto, r.onWire)
	return r
}

// ID returns the replica's node id.
func (r *Replica) ID() flcrypto.NodeID { return r.id }

// Metrics returns the replica's counters.
func (r *Replica) Metrics() *Metrics { return &r.metrics }

// Start launches the event loop.
func (r *Replica) Start() {
	r.stopped.Add(1)
	go r.run()
}

// Stop terminates the event loop.
func (r *Replica) Stop() {
	close(r.stop)
	r.stopped.Wait()
}

// Submit atomic-broadcasts a request: it will eventually be delivered, in
// the same order, at every correct replica (under partial synchrony).
func (r *Replica) Submit(req []byte) error {
	body := make([]byte, 1+len(req))
	body[0] = kindRequest
	copy(body[1:], req)
	return r.signAndBroadcast(body)
}

// pooledReq is a pending request and when this replica last broadcast it
// (its arrival, until onTick re-sends it).
type pooledReq struct {
	req  []byte
	sent time.Time
}

// onWire runs on the replica's transport mailbox goroutine: decode the
// envelope and queue it for the event loop. With a verify pool the signature
// check happens here — synchronously on the mailbox goroutine, through the
// pool's cache — so the event loop runs crypto-free and only valid envelopes
// reach it. Verification stays on the single mailbox goroutine (rather than
// fanning out to pool workers) deliberately: it preserves the mux's
// per-protocol FIFO, which the view-change sequences lean on (a NEW-VIEW
// overtaken by its own follow-up pre-prepares would drop them); when the
// mailbox falls behind, the backpressure lands there, never on the socket
// reader.
func (r *Replica) onWire(from flcrypto.NodeID, buf []byte) {
	d := types.NewDecoder(buf)
	body := append([]byte(nil), d.Bytes32()...)
	sig := append(flcrypto.Signature(nil), d.Bytes32()...)
	if d.Finish() != nil || len(body) == 0 {
		return
	}
	verified := false
	if r.cfg.VerifyPool != nil {
		if !r.cfg.VerifyPool.VerifyNode(r.cfg.Registry, from, body, sig) {
			return
		}
		r.metrics.VerifyOps.Add(1)
		verified = true
	}
	select {
	case r.events <- event{from: from, body: body, sig: sig, verified: verified}:
	case <-r.stop:
	}
}

func (r *Replica) signAndBroadcast(body []byte) error {
	sig, err := r.cfg.Priv.Sign(body)
	if err != nil {
		return fmt.Errorf("pbft: sign: %w", err)
	}
	r.metrics.SignOps.Add(1)
	e := types.NewEncoder(8 + len(body) + len(sig))
	e.Bytes32(body)
	e.Bytes32(sig)
	return r.cfg.Mux.Broadcast(r.cfg.Proto, e.Bytes())
}

// verifyRaw checks an embedded signed message (certificate element) through
// the verify pool's cache when one is configured — view changes and fetch
// responses re-present prepares/commits the replica usually verified when
// they first arrived — falling back to direct registry verification.
func (r *Replica) verifyRaw(m *signedRaw) bool {
	return r.cfg.VerifyPool.VerifyNode(r.cfg.Registry, m.From, m.Body, m.Sig)
}

func (r *Replica) signedRawFor(body []byte) (signedRaw, error) {
	sig, err := r.cfg.Priv.Sign(body)
	if err != nil {
		return signedRaw{}, err
	}
	r.metrics.SignOps.Add(1)
	return signedRaw{From: r.id, Body: body, Sig: sig}, nil
}

func (r *Replica) leaderOf(view uint64) flcrypto.NodeID {
	return flcrypto.NodeID(view % uint64(r.n))
}

func (r *Replica) run() {
	defer r.stopped.Done()
	ticker := time.NewTicker(r.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case ev := <-r.events:
			r.handle(ev)
		case <-ticker.C:
			r.onTick()
		}
	}
}

func (r *Replica) handle(ev event) {
	if !ev.verified {
		if !r.cfg.Registry.Verify(ev.from, ev.body, ev.sig) {
			return
		}
		r.metrics.VerifyOps.Add(1)
	}
	raw := signedRaw{From: ev.from, Body: ev.body, Sig: ev.sig}
	kind := ev.body[0]
	d := types.NewDecoder(ev.body[1:])
	switch kind {
	case kindRequest:
		r.onRequest(ev.body[1:])
	case kindPrePrepare:
		pp := decodePrePrepare(d)
		if d.Err() == nil {
			r.onPrePrepare(raw, pp)
		}
	case kindPrepare:
		v := decodeVote(d)
		if d.Finish() == nil {
			r.onVote(raw, v, true)
		}
	case kindCommit:
		v := decodeVote(d)
		if d.Finish() == nil {
			r.onVote(raw, v, false)
		}
	case kindViewChange:
		vc := decodeViewChange(d)
		if d.Err() == nil {
			r.onViewChange(raw, vc)
		}
	case kindNewView:
		nv := decodeNewView(d)
		if d.Err() == nil {
			r.onNewView(raw, nv)
		}
	case kindFetch:
		seq := d.Uint64()
		if d.Finish() == nil {
			r.onFetch(ev.from, seq)
		}
	case kindFetchResp:
		fr := decodeFetchResp(d)
		if d.Err() == nil {
			r.onFetchResp(fr)
		}
	}
}

// --- Normal case ---

func (r *Replica) onRequest(req []byte) {
	digest := flcrypto.Sum256(req)
	if r.reqSeen[digest] {
		return
	}
	if _, ok := r.pool[digest]; ok {
		return
	}
	r.pool[digest] = &pooledReq{req: append([]byte(nil), req...), sent: time.Now()}
	r.poolOrder = append(r.poolOrder, digest)
	r.armTimer()
	r.tryPropose()
}

// tryPropose lets the current leader assign pending requests to sequence
// numbers, respecting the outstanding window.
func (r *Replica) tryPropose() {
	if r.inVC || r.leaderOf(r.view) != r.id {
		return
	}
	for {
		if r.nextSeq > r.lastExec+uint64(r.cfg.Window) {
			return
		}
		batch := r.takeBatch()
		if len(batch) == 0 {
			return
		}
		pp := prePrepare{View: r.view, Seq: r.nextSeq, Batch: batch}
		r.nextSeq++
		body := encodeBody(kindPrePrepare, func(e *types.Encoder) { pp.encode(e) })
		if err := r.signAndBroadcast(body); err != nil {
			return
		}
		// Local processing happens when the broadcast loops back.
	}
}

func encodeBody(kind uint8, enc func(*types.Encoder)) []byte {
	e := types.NewEncoder(64)
	e.Uint8(kind)
	enc(e)
	return e.Bytes()
}

// takeBatch collects up to BatchSize unassigned pending requests.
func (r *Replica) takeBatch() [][]byte {
	var batch [][]byte
	var kept []flcrypto.Hash
	for i, digest := range r.poolOrder {
		if len(batch) >= r.cfg.BatchSize {
			kept = append(kept, r.poolOrder[i:]...)
			break
		}
		p, ok := r.pool[digest]
		if !ok || r.reqSeen[digest] {
			continue
		}
		if _, busy := r.assigned[digest]; busy {
			kept = append(kept, digest)
			continue
		}
		batch = append(batch, p.req)
		r.assigned[digest] = r.nextSeq
		kept = append(kept, digest)
	}
	r.poolOrder = kept
	return batch
}

func (r *Replica) entry(seq uint64) *entry {
	en := r.entries[seq]
	if en == nil {
		en = newEntry(seq)
		r.entries[seq] = en
	}
	return en
}

func (r *Replica) onPrePrepare(raw signedRaw, pp prePrepare) {
	if pp.View != r.view || r.inVC {
		return
	}
	if raw.From != r.leaderOf(pp.View) {
		return
	}
	if pp.Seq <= r.lastExec || pp.Seq > r.lastExec+2*uint64(r.cfg.Window) {
		return
	}
	en := r.entry(pp.Seq)
	if en.pp != nil && en.view == pp.View {
		return // already accepted a pre-prepare for this (view, seq)
	}
	r.acceptPrePrepare(en, raw, pp)
	// Broadcast PREPARE.
	v := vote{View: pp.View, Seq: pp.Seq, Digest: en.digest}
	if !en.sentPrep {
		en.sentPrep = true
		r.signAndBroadcast(encodeBody(kindPrepare, func(e *types.Encoder) { v.encode(e) }))
	}
	r.checkQuorums(en)
}

func (r *Replica) acceptPrePrepare(en *entry, raw signedRaw, pp prePrepare) {
	en.view = pp.View
	en.digest = batchDigest(pp.Batch)
	en.batch = pp.Batch
	cp := raw
	en.pp = &cp
	en.sentPrep = false
	en.sentComm = false
	for _, req := range pp.Batch {
		r.assigned[flcrypto.Sum256(req)] = pp.Seq
	}
	r.armTimer()
}

func (r *Replica) onVote(raw signedRaw, v vote, isPrepare bool) {
	if v.Seq <= r.lastExec && !isPrepare {
		// Late commits can still matter for fetch serving, but executed
		// entries already have their quorum; ignore.
		return
	}
	if v.Seq > r.lastExec+4*uint64(r.cfg.Window) {
		return
	}
	en := r.entry(v.Seq)
	key := voteKey{view: v.View, digest: v.Digest}
	var m map[voteKey]map[flcrypto.NodeID]signedRaw
	if isPrepare {
		m = en.prepares
	} else {
		m = en.commits
	}
	set := m[key]
	if set == nil {
		set = make(map[flcrypto.NodeID]signedRaw)
		m[key] = set
	}
	if _, dup := set[raw.From]; dup {
		return
	}
	set[raw.From] = raw
	r.checkQuorums(en)
}

// prepared reports whether en has a prepare quorum for its accepted
// pre-prepare: the pre-prepare itself plus 2f prepares from non-leader
// replicas (own prepare included via loopback).
func (r *Replica) preparedQuorum(en *entry) bool {
	if en.pp == nil {
		return false
	}
	set := en.prepares[voteKey{view: en.view, digest: en.digest}]
	count := 0
	for from := range set {
		if from != r.leaderOf(en.view) {
			count++
		}
	}
	return count >= 2*r.f
}

func (r *Replica) commitQuorum(en *entry) (map[flcrypto.NodeID]signedRaw, bool) {
	if en.pp == nil {
		return nil, false
	}
	set := en.commits[voteKey{view: en.view, digest: en.digest}]
	if len(set) >= 2*r.f+1 {
		return set, true
	}
	return nil, false
}

func (r *Replica) checkQuorums(en *entry) {
	if en.pp != nil && !en.sentComm && r.preparedQuorum(en) {
		en.sentComm = true
		v := vote{View: en.view, Seq: en.seq, Digest: en.digest}
		r.signAndBroadcast(encodeBody(kindCommit, func(e *types.Encoder) { v.encode(e) }))
	}
	if _, ok := r.commitQuorum(en); ok {
		if en.seq > r.maxCommittedSeen {
			r.maxCommittedSeen = en.seq
		}
		r.execute()
	} else if en.seq > r.maxCommittedSeen && anyQuorum(en.commits, 2*r.f+1) {
		// 2f+1 signed commits prove the sequence committed at f+1 correct
		// replicas even though this one never accepted its pre-prepare
		// (lost, or rejected mid view change). Recording it arms the fetch
		// in onTick; without it a replica that missed a pre-prepare while
		// its peers moved on never learns it is behind, and the leader
		// timer only starts view changes that nobody else joins.
		r.maxCommittedSeen = en.seq
	}
}

// anyQuorum reports whether some (view, digest) in votes has at least q
// distinct signers.
func anyQuorum(votes map[voteKey]map[flcrypto.NodeID]signedRaw, q int) bool {
	for _, set := range votes {
		if len(set) >= q {
			return true
		}
	}
	return false
}

// execute applies committed entries strictly in sequence order.
func (r *Replica) execute() {
	for {
		en := r.entries[r.lastExec+1]
		if en == nil || en.executed {
			if en != nil && en.executed {
				r.lastExec++
				continue
			}
			return
		}
		if _, ok := r.commitQuorum(en); !ok {
			return
		}
		en.executed = true
		r.lastExec = en.seq
		var deliverable [][]byte
		for _, req := range en.batch {
			digest := flcrypto.Sum256(req)
			if r.reqSeen[digest] {
				continue
			}
			r.reqSeen[digest] = true
			delete(r.pool, digest)
			delete(r.assigned, digest)
			deliverable = append(deliverable, req)
		}
		r.metrics.BatchesDelivered.Add(1)
		r.metrics.RequestsDelivered.Add(uint64(len(deliverable)))
		if r.cfg.Deliver != nil {
			r.cfg.Deliver(en.seq, deliverable)
		}
		r.gc()
		r.resetTimerIfIdle()
		r.tryPropose()
	}
}

func (r *Replica) gc() {
	defer r.metrics.EntriesRetained.Store(uint64(len(r.entries)))
	if r.lastExec < r.cfg.KeepWindow {
		return
	}
	cutoff := r.lastExec - r.cfg.KeepWindow
	for seq := range r.entries {
		if seq <= cutoff {
			delete(r.entries, seq)
		}
	}
}

// --- Timers, fetching ---

// armTimer starts the leader-failure countdown if work is outstanding.
func (r *Replica) armTimer() {
	if r.deadline.IsZero() && !r.inVC {
		r.deadline = time.Now().Add(r.timeout())
	}
}

func (r *Replica) timeout() time.Duration {
	d := r.cfg.ViewTimeout << r.vcFails
	if max := 30 * time.Second; d > max {
		d = max
	}
	return d
}

// resetTimerIfIdle clears or re-arms the countdown after progress.
func (r *Replica) resetTimerIfIdle() {
	if len(r.pool) == 0 && r.lastExec >= r.maxCommittedSeen {
		r.deadline = time.Time{}
		r.vcFails = 0
		return
	}
	// Progress was made; push the deadline out.
	r.deadline = time.Now().Add(r.timeout())
}

func (r *Replica) onTick() {
	now := time.Now()
	if !r.deadline.IsZero() && now.After(r.deadline) {
		// Escalate past an in-progress view change whose new leader is
		// itself unresponsive.
		next := r.view + 1
		if r.inVC && r.vcTarget >= next {
			next = r.vcTarget + 1
		}
		r.startViewChange(next)
	}
	// State transfer: stuck behind a known commit. The fetch fires whether
	// the pre-prepare is missing or only the commit certificate is (either
	// way the response carries both) — a replica that received a
	// pre-prepare but lost the commits would otherwise starve forever.
	if r.maxCommittedSeen > r.lastExec && now.Sub(r.lastFetch) > 200*time.Millisecond {
		r.fetchNext()
	}
	r.resendStale(now)
}

// resendStale re-broadcasts the oldest pending request this replica holds
// unassigned, once it has waited a full timeout since it was last sent. A
// request that reached some replicas but not the leader is otherwise never
// proposed: the leader-failure timer only fires when nothing executes, and
// other requests' progress keeps postponing it. The leader batches in
// arrival order, so a lost request stays the oldest one here while later
// ones are ordered past it; one resend per timeout keeps the cost
// negligible when the oldest request is merely waiting for a full window.
// Replicas dedup by digest. The pass also drops executed requests from
// poolOrder here at a non-leader, where takeBatch never runs.
func (r *Replica) resendStale(now time.Time) {
	if r.leaderOf(r.view) == r.id {
		return
	}
	kept := r.poolOrder[:0]
	var oldest *pooledReq
	for _, digest := range r.poolOrder {
		p := r.pool[digest]
		if p == nil {
			continue // executed
		}
		kept = append(kept, digest)
		if _, busy := r.assigned[digest]; !busy && oldest == nil {
			oldest = p
		}
	}
	r.poolOrder = kept
	if oldest != nil && now.Sub(oldest.sent) >= r.timeout() {
		oldest.sent = now
		r.Submit(oldest.req)
	}
}

// fetchNext requests the full commit certificate for the next unexecuted
// sequence from the peers.
func (r *Replica) fetchNext() {
	r.lastFetch = time.Now()
	seq := r.lastExec + 1
	r.signAndBroadcast(encodeBody(kindFetch, func(e *types.Encoder) { e.Uint64(seq) }))
}

func (r *Replica) onFetch(from flcrypto.NodeID, seq uint64) {
	en := r.entries[seq]
	if en == nil || en.pp == nil {
		return
	}
	commits, ok := r.commitQuorum(en)
	if !ok {
		return
	}
	fr := fetchResp{Seq: seq, PrePrepare: *en.pp}
	for _, c := range commits {
		fr.Commits = append(fr.Commits, c)
	}
	body := encodeBody(kindFetchResp, func(e *types.Encoder) { fr.encode(e) })
	sig, err := r.cfg.Priv.Sign(body)
	if err != nil {
		return
	}
	r.metrics.SignOps.Add(1)
	e := types.NewEncoder(8 + len(body) + len(sig))
	e.Bytes32(body)
	e.Bytes32(sig)
	r.cfg.Mux.Send(r.cfg.Proto, from, e.Bytes())
}

func (r *Replica) onFetchResp(fr fetchResp) {
	if fr.Seq != r.lastExec+1 {
		return
	}
	// Verify the pre-prepare and the commit certificate.
	if len(fr.PrePrepare.Body) == 0 || fr.PrePrepare.Body[0] != kindPrePrepare {
		return
	}
	if !r.verifyRaw(&fr.PrePrepare) {
		return
	}
	r.metrics.VerifyOps.Add(1)
	d := types.NewDecoder(fr.PrePrepare.Body[1:])
	pp := decodePrePrepare(d)
	if d.Err() != nil || pp.Seq != fr.Seq {
		return
	}
	if fr.PrePrepare.From != r.leaderOf(pp.View) {
		return
	}
	digest := batchDigest(pp.Batch)
	seen := make(map[flcrypto.NodeID]bool)
	for _, c := range fr.Commits {
		if len(c.Body) == 0 || c.Body[0] != kindCommit || !r.verifyRaw(&c) {
			continue
		}
		r.metrics.VerifyOps.Add(1)
		cd := types.NewDecoder(c.Body[1:])
		v := decodeVote(cd)
		if cd.Finish() != nil || v.Seq != fr.Seq || v.Digest != digest {
			continue
		}
		seen[c.From] = true
	}
	if len(seen) < 2*r.f+1 {
		return
	}
	// Adopt: install the entry as committed and execute.
	en := r.entry(fr.Seq)
	en.view = pp.View
	en.digest = digest
	en.batch = pp.Batch
	cp := fr.PrePrepare
	en.pp = &cp
	key := voteKey{view: pp.View, digest: digest}
	set := en.commits[key]
	if set == nil {
		set = make(map[flcrypto.NodeID]signedRaw)
		en.commits[key] = set
	}
	for _, c := range fr.Commits {
		cd := types.NewDecoder(c.Body[1:])
		v := decodeVote(cd)
		if cd.Finish() == nil && v.Digest == digest && v.View == pp.View {
			set[c.From] = c
		}
	}
	if len(set) >= 2*r.f+1 {
		r.execute()
		// Chain the catch-up: fetching one certificate per housekeeping
		// tick would pace recovery at 5 entries/s; fetching the next one
		// as soon as this one executes paces it at the network RTT.
		if r.maxCommittedSeen > r.lastExec {
			r.fetchNext()
		}
	} else {
		// Commits were from a different view than the pre-prepare (possible
		// after fetch from a replica that committed post view change);
		// accept them under their own key.
		en.commits[key] = set
		for _, c := range fr.Commits {
			cd := types.NewDecoder(c.Body[1:])
			v := decodeVote(cd)
			if cd.Finish() != nil || v.Digest != digest {
				continue
			}
			k2 := voteKey{view: v.View, digest: digest}
			s2 := en.commits[k2]
			if s2 == nil {
				s2 = make(map[flcrypto.NodeID]signedRaw)
				en.commits[k2] = s2
			}
			s2[c.From] = c
			if len(s2) >= 2*r.f+1 {
				en.view = v.View
				r.execute()
				if r.maxCommittedSeen > r.lastExec {
					r.fetchNext()
				}
				return
			}
		}
	}
}
