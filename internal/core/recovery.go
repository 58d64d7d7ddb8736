package core

import (
	"sync"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// RecoveryTag prefixes recovery versions in the shared atomic-broadcast
// stream (obbc.BBCTag is 0x01).
const RecoveryTag byte = 0x02

// versionWaitTimeout bounds a recovery's wait for n−f versions: peers serve
// versions even for recoveries they already completed, so a longer
// starvation means they are partitioned away or down, and the abandoned
// recovery (safe pre-adoption) is retried by the round loop's next panic.
const versionWaitTimeout = 10 * time.Second

// versionMsg is one node's proposed chain version in a recovery (Algorithm 3
// line 6): the last f+1 blocks in dispute followed by everything newer the
// node knows, or an empty version if the node is behind (line 4). It is
// signed by its sender so the atomic-broadcast layer cannot be used to forge
// attribution.
type versionMsg struct {
	Instance uint32
	RecRound uint64
	From     flcrypto.NodeID
	Blocks   []types.Block
	Sig      flcrypto.Signature
}

func versionSigBody(instance uint32, recRound uint64, from flcrypto.NodeID, blocks []types.Block) []byte {
	h := flcrypto.NewHasher()
	h.Write([]byte("fireledger/recovery"))
	h.WriteUint64(uint64(instance))
	h.WriteUint64(recRound)
	h.WriteUint64(uint64(int64(from)))
	for i := range blocks {
		bh := blocks[i].Hash()
		h.Write(bh[:])
	}
	d := h.Sum()
	return d[:]
}

func (v *versionMsg) encode(e *types.Encoder) {
	e.Uint8(RecoveryTag)
	e.Uint32(v.Instance)
	e.Uint64(v.RecRound)
	e.Int64(int64(v.From))
	e.Uint32(uint32(len(v.Blocks)))
	for i := range v.Blocks {
		v.Blocks[i].Encode(e)
	}
	e.Bytes32(v.Sig)
}

func decodeVersionMsg(d *types.Decoder) versionMsg {
	var v versionMsg
	v.Instance = d.Uint32()
	v.RecRound = d.Uint64()
	v.From = flcrypto.NodeID(d.Int64())
	n := d.Uint32()
	if d.Err() != nil {
		return v
	}
	if n > 1<<16 {
		// Poison the decoder: without an error a partially decoded message
		// would pass the caller's Finish check whenever the trailing bytes
		// happened to line up, and the oversized count itself is a protocol
		// violation that must reject the whole frame.
		d.Fail(types.ErrTooLarge)
		return v
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		v.Blocks = append(v.Blocks, types.DecodeBlock(d))
	}
	v.Sig = append(flcrypto.Signature(nil), d.Bytes32()...)
	return v
}

// tip returns the version's last round (0 for an empty version).
func (v *versionMsg) tip() uint64 {
	if len(v.Blocks) == 0 {
		return 0
	}
	return v.Blocks[len(v.Blocks)-1].Header().Round
}

type recState struct {
	versions []versionMsg // distinct senders, atomic order
	senders  map[flcrypto.NodeID]bool
	update   chan struct{}
	done     bool
}

// recoveryTracker owns Algorithm 3 for one instance.
type recoveryTracker struct {
	in *Instance

	mu      sync.Mutex
	states  map[uint64]*recState
	handled uint64 // highest recovery round completed
	// servedLate dedups version service for proofs at or below handled
	// (see runRecovery's late-proof path).
	servedLate map[uint64]bool
}

func newRecoveryTracker(in *Instance) *recoveryTracker {
	return &recoveryTracker{in: in, states: make(map[uint64]*recState)}
}

func (rt *recoveryTracker) state(r uint64) *recState {
	st := rt.states[r]
	if st == nil {
		st = &recState{senders: make(map[flcrypto.NodeID]bool), update: make(chan struct{})}
		rt.states[r] = st
	}
	return st
}

// HandleOrdered ingests one atomic-broadcast request. It returns true when
// the request was a recovery version for this instance. Must be invoked in
// the agreed total order at every node — the order breaks the Algorithm 3
// line 16 tie ("the first received among...") identically everywhere.
func (rt *recoveryTracker) HandleOrdered(req []byte) bool {
	if len(req) == 0 || req[0] != RecoveryTag {
		return false
	}
	d := types.NewDecoder(req[1:])
	v := decodeVersionMsg(d)
	if d.Finish() != nil {
		return false
	}
	if v.Instance != rt.in.cfg.Instance {
		return false
	}
	if int(v.From) < 0 || int(v.From) >= rt.in.n {
		return true
	}
	if !rt.in.cfg.VerifyPool.VerifyNode(rt.in.cfg.Registry, v.From, versionSigBody(v.Instance, v.RecRound, v.From, v.Blocks), v.Sig) {
		return true
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.state(v.RecRound)
	if st.done || st.senders[v.From] {
		return true
	}
	st.senders[v.From] = true
	st.versions = append(st.versions, v)
	close(st.update)
	st.update = make(chan struct{})
	return true
}

// startRound returns the first round a recovery for r may alter:
// r−(f+1), clamped to 1 (the version of line 6 starts there).
func (rt *recoveryTracker) startRound(r uint64) uint64 {
	f := uint64(rt.in.f)
	if r <= f+1 {
		return 1
	}
	return r - (f + 1)
}

// validVersion checks a received version against the agreed prefix
// (Lemma 5.3.6): it must start at r−(f+1), chain internally with valid
// signatures and bodies, anchor on the agreed block at r−(f+2) (which the
// caller has ensured is present locally), and respect proposer diversity.
// Empty versions are trivially valid.
func (rt *recoveryTracker) validVersion(v *versionMsg, r uint64) bool {
	if len(v.Blocks) == 0 {
		return true
	}
	start := rt.startRound(r)
	first := v.Blocks[0].Header()
	if first.Round != start {
		return false
	}
	// Anchor. HashAt serves round 0 (genesis) and the compaction base, so a
	// restarted-from-snapshot node can still anchor versions adjacent to
	// its snapshot boundary.
	anchor, ok := rt.in.chain.HashAt(start - 1)
	if !ok {
		return false
	}
	prev := anchor
	f := rt.in.f
	for i := range v.Blocks {
		blk := &v.Blocks[i]
		hdr := blk.Header()
		if hdr.Instance != rt.in.cfg.Instance {
			return false
		}
		if hdr.Round != start+uint64(i) {
			return false
		}
		if hdr.PrevHash != prev {
			return false
		}
		if !blk.Signed.VerifyPooled(rt.in.cfg.Registry, rt.in.cfg.VerifyPool) || blk.CheckBody() != nil {
			return false
		}
		// Proposer diversity within the version (Definition 5.3.1).
		for j := i - f; j < i; j++ {
			if j >= 0 && v.Blocks[j].Header().Proposer == hdr.Proposer {
				return false
			}
		}
		prev = blk.Hash()
	}
	return true
}

// harvestEquivocations feeds the evidence pool every equivocation exposed by
// the recovery data: conflicting same-round headers across the collected
// versions and this node's own pre-adoption chain suffix. The versions were
// already signature-checked by validVersion; the pool re-verifies each pair
// before recording it.
func (rt *recoveryTracker) harvestEquivocations(versions []versionMsg, mine []types.Block) {
	pool := rt.in.cfg.Evidence
	if pool == nil {
		return
	}
	// A proposal slot is (round, proposer, parent): only two different
	// headers for the same slot convict (a correct node may re-sign a round
	// on a different parent after a recovery redo; see internal/evidence).
	type slotKey struct {
		round    uint64
		proposer flcrypto.NodeID
		prev     flcrypto.Hash
	}
	seen := make(map[slotKey]types.SignedHeader)
	observe := func(sh types.SignedHeader) {
		key := slotKey{round: sh.Header.Round, proposer: sh.Header.Proposer, prev: sh.Header.PrevHash}
		if first, dup := seen[key]; dup {
			if first.HeaderHash() != sh.HeaderHash() {
				pool.ObservePair(first, sh)
			}
			return
		}
		seen[key] = sh
	}
	for i := range versions {
		for j := range versions[i].Blocks {
			observe(versions[i].Blocks[j].Signed)
		}
	}
	for i := range mine {
		observe(mine[i].Signed)
	}
}

// submitVersion signs and atomically broadcasts this node's version for
// recovery round r (Algorithm 3 lines 3–7).
func (rt *recoveryTracker) submitVersion(r uint64) error {
	in := rt.in
	start := rt.startRound(r)
	var myBlocks []types.Block
	tip := in.chain.Tip()
	if tip+1 >= r { // ri ≥ r−1 in the paper's terms
		myBlocks = in.chain.Suffix(start)
	}
	v := versionMsg{Instance: in.cfg.Instance, RecRound: r, From: in.id, Blocks: myBlocks}
	sig, err := in.cfg.Priv.Sign(versionSigBody(v.Instance, v.RecRound, v.From, v.Blocks))
	if err != nil {
		return err
	}
	in.metrics.SignOps.Add(1)
	v.Sig = sig
	e := types.NewEncoder(1024)
	v.encode(e)
	return in.cfg.SubmitAB(e.Bytes())
}

// runRecovery executes Algorithm 3 for the proof's round. It returns true
// if a recovery actually ran (the caller resets its round state).
func (rt *recoveryTracker) runRecovery(proof Proof) bool {
	r := proof.Round()
	rt.mu.Lock()
	if r <= rt.handled {
		served := rt.servedLate[r]
		if !served {
			if rt.servedLate == nil {
				rt.servedLate = make(map[uint64]bool)
			}
			if len(rt.servedLate) > 128 {
				rt.servedLate = make(map[uint64]bool) // cheap pruning; worst case re-serves once
			}
			rt.servedLate[r] = true
		}
		rt.mu.Unlock()
		if !served {
			// A valid proof for a recovery this node already completed (or
			// superseded by a later one): the round is settled here, but
			// the panicking straggler still needs n−f versions, and peers
			// that silently drop late proofs starve its version wait
			// forever (a permanent stall the simulation harness found —
			// every live peer had "handled" a higher recovery and ignored
			// the proof). Serving a version is cheap, needs no protocol
			// state, and is dedup-limited to once per recovery round.
			_ = rt.submitVersion(r)
		}
		return false
	}
	rt.mu.Unlock()

	in := rt.in
	in.metrics.Recoveries.Add(1)
	start := rt.startRound(r)

	if err := rt.submitVersion(r); err != nil {
		return false
	}

	// Catch up to the anchor if we are behind: blocks below r−(f+1) are
	// agreed (Lemma 5.3.4), so they can be fetched from any correct node.
	// A snapshot install that lands meanwhile ends the fetch; abandoning
	// here is pre-adoption (see below), and the round loop resumes from the
	// installed base.
	if start >= 2 {
		for in.chain.Tip() < start-1 {
			next := in.chain.Tip() + 1
			blk, ok := in.data.fetchBlock(next, in.stop)
			if !ok {
				return false
			}
			if in.chain.Append(blk) != nil {
				return false
			}
		}
	}

	// Lines 9–15: collect n−f valid versions. The wait is bounded: peers
	// serve versions for late proofs (see the handled-path above), so
	// starvation here means they are unreachable or gone — abandoning
	// pre-adoption is safe (no chain or protocol state has changed) and
	// the round loop re-attempts, re-panicking with a fresh proof if the
	// conflict persists.
	waitDeadline := time.Now().Add(versionWaitTimeout)
	need := in.n - in.f
	var winner *versionMsg
	var collected []versionMsg
	for {
		rt.mu.Lock()
		st := rt.state(r)
		valid := make([]versionMsg, 0, len(st.versions))
		for i := range st.versions {
			if rt.validVersion(&st.versions[i], r) {
				valid = append(valid, st.versions[i])
			}
		}
		ch := st.update
		rt.mu.Unlock()
		if len(valid) >= need {
			// Line 16: the first received among the max-tip versions.
			best := valid[0]
			for _, cand := range valid[1:] {
				if cand.tip() > best.tip() {
					best = cand
				}
			}
			winner = &best
			collected = valid
			break
		}
		// Escape hatch for a node recovering a round the cluster has long
		// left behind: peers whose tracker already handled a higher
		// recovery ignore this proof, so the n−f versions never arrive and
		// the worker would park here forever while the true definite chain
		// piles up in the catch-up buffer (a wedge the simulation harness
		// found: an equivocator's conflicting evidence reached a lagging
		// node after a partition heal). Abandoning is safe only in that
		// far-behind shape — peers are not redoing these rounds, so no
		// cross-node state diverges, and the adoption path replaces the
		// affected suffix wholesale. The running range syncer is the
		// discriminator: it only runs when the definite frontier is at
		// least a batch ahead of us. A near-tip recovery among live peers
		// must keep waiting — abandoning it while the others complete (and
		// DropFrom-reset the redone rounds) would leave this node's stale
		// per-round state poisoning the quorum, a stall the harness also
		// caught when this gate was missing.
		if in.data.ranger.active() && in.data.hasFetched(in.chain.Tip()+1) {
			return false
		}
		if time.Now().After(waitDeadline) {
			return false
		}
		wait := time.NewTimer(time.Until(waitDeadline))
		select {
		case <-ch:
		case <-in.data.updateChan():
		case <-wait.C:
		case <-in.stop:
			wait.Stop()
			return false
		}
		wait.Stop()
	}

	// Accountability: the collected versions plus our own pre-adoption
	// suffix expose the equivocation that caused this recovery — any two
	// signed headers for the same round by the same proposer with different
	// hashes convict that proposer (see internal/evidence).
	rt.harvestEquivocations(collected, in.chain.Suffix(start))

	// Lines 17–18: adopt.
	adoptFrom := start
	blocks := winner.Blocks
	if def := in.chain.Definite(); adoptFrom <= def {
		skip := def - adoptFrom + 1
		if uint64(len(blocks)) <= skip {
			blocks = nil
		} else {
			blocks = blocks[skip:]
		}
		adoptFrom = def + 1
	}
	if err := in.chain.ReplaceSuffix(adoptFrom, blocks); err == nil {
		// Definite decisions may have advanced.
		newTip := in.chain.Tip()
		if newTip > uint64(in.f)+2 {
			in.finalizeThrough(newTip - uint64(in.f) - 2)
		}
	}
	// The redone rounds must start from clean per-round protocol state:
	// pre-recovery headers may not link to the adopted chain, and
	// pre-recovery OBBC instances may hold aborted or decided state that
	// would poison the re-vote (peers that re-propose re-broadcast their
	// votes, so dropped quorums re-form).
	in.cfg.WRB.DropFrom(in.cfg.Instance, start)
	in.cfg.OBBC.DropFrom(in.cfg.Instance, start)

	rt.mu.Lock()
	rt.state(r).done = true
	if r > rt.handled {
		rt.handled = r
	}
	// Drop completed recovery states below the handled bound.
	for rr := range rt.states {
		if rr < rt.handled {
			delete(rt.states, rr)
		}
	}
	rt.mu.Unlock()
	in.fd.invalidate()
	return true
}
