package core

import (
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/obbc"
	"repro/internal/rbroadcast"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wrb"
)

// newBareInstance builds an Instance with live (but unstarted) services, for
// unit-testing internal recovery logic against a pre-built chain.
func newBareInstance(t *testing.T, ks *flcrypto.KeySet, chainRounds int) *Instance {
	t.Helper()
	net := transport.NewChanNetwork(transport.ChanConfig{N: ks.Registry.N()})
	t.Cleanup(net.Close)
	mux := transport.NewMux(net.Endpoint(0))
	w := wrb.New(wrb.Config{Mux: mux, Proto: 1, Registry: ks.Registry})
	o := obbc.New(obbc.Config{Mux: mux, Proto: 2, Registry: ks.Registry, Priv: ks.Privs[0]})
	w.BindOBBC(o)
	in := New(Config{
		Mux:       mux,
		Registry:  ks.Registry,
		Priv:      ks.Privs[0],
		WRB:       w,
		OBBC:      o,
		DataProto: 3,
		SubmitAB:  func([]byte) error { return nil },
	})
	in.BindRB(rbroadcast.New(mux, 4, func(flcrypto.NodeID, uint64, []byte) {}))
	// Pre-populate the chain.
	src := buildChain(t, ks, 0, chainRounds)
	for r := uint64(1); r <= src.Tip(); r++ {
		blk, _ := src.BlockAt(r)
		if err := in.chain.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// makeVersion builds a version whose blocks extend the instance's block at
// round start−1 with fresh content.
func makeVersion(t *testing.T, ks *flcrypto.KeySet, in *Instance, recRound uint64, length int) versionMsg {
	t.Helper()
	start := in.rec.startRound(recRound)
	var prev flcrypto.Hash
	if start == 1 {
		prev = types.GenesisHeader(0).Hash()
	} else {
		hdr, ok := in.chain.HeaderAt(start - 1)
		if !ok {
			t.Fatalf("missing anchor at %d", start-1)
		}
		prev = hdr.Hash()
	}
	n := ks.Registry.N()
	var blocks []types.Block
	for i := 0; i < length; i++ {
		round := start + uint64(i)
		proposer := int(round+1) % n
		blk, err := types.NewBlock(0, round, flcrypto.NodeID(proposer), prev,
			[]types.Transaction{{Client: 77, Seq: round}}, ks.Privs[proposer])
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
		prev = blk.Hash()
	}
	return versionMsg{Instance: 0, RecRound: recRound, From: 1, Blocks: blocks}
}

func TestValidVersionAcceptsGoodAndEmpty(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	const recRound = 6 // f=1 => versions start at round 4
	v := makeVersion(t, ks, in, recRound, 3)
	if !in.rec.validVersion(&v, recRound) {
		t.Fatal("well-formed version rejected")
	}
	empty := versionMsg{Instance: 0, RecRound: recRound, From: 2}
	if !in.rec.validVersion(&empty, recRound) {
		t.Fatal("empty version rejected (Algorithm 3 line 4 allows it)")
	}
}

func TestValidVersionRejectsWrongStart(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	v := makeVersion(t, ks, in, 6, 3)
	v.Blocks = v.Blocks[1:] // now starts at round 5 instead of 4
	if in.rec.validVersion(&v, 6) {
		t.Fatal("version with wrong start round accepted")
	}
}

func TestValidVersionRejectsBrokenChain(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	v := makeVersion(t, ks, in, 6, 3)
	// Re-sign block 1 with a different prev hash: the internal link breaks.
	hdr := v.Blocks[1].Signed.Header
	hdr.PrevHash = flcrypto.Sum256([]byte("severed"))
	signed, err := hdr.Sign(ks.Privs[int(hdr.Proposer)])
	if err != nil {
		t.Fatal(err)
	}
	v.Blocks[1].Signed = signed
	if in.rec.validVersion(&v, 6) {
		t.Fatal("version with broken hash chain accepted")
	}
}

func TestValidVersionRejectsBadSignature(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	v := makeVersion(t, ks, in, 6, 3)
	v.Blocks[2].Signed.Sig = append(flcrypto.Signature(nil), v.Blocks[2].Signed.Sig...)
	v.Blocks[2].Signed.Sig[0] ^= 1
	if in.rec.validVersion(&v, 6) {
		t.Fatal("version with forged block signature accepted")
	}
}

func TestValidVersionRejectsProposerRepetition(t *testing.T) {
	// Lemma 5.3.2's diversity rule: two consecutive blocks (f=1) by the
	// same proposer invalidate a version even if hashes chain.
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	start := in.rec.startRound(6)
	anchor, _ := in.chain.HeaderAt(start - 1)
	prev := anchor.Hash()
	var blocks []types.Block
	for i := 0; i < 2; i++ {
		blk, err := types.NewBlock(0, start+uint64(i), 2, prev, nil, ks.Privs[2])
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
		prev = blk.Hash()
	}
	v := versionMsg{Instance: 0, RecRound: 6, From: 1, Blocks: blocks}
	if in.rec.validVersion(&v, 6) {
		t.Fatal("version with repeated proposer within f+1 window accepted")
	}
}

func TestValidVersionRejectsBodyMismatch(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	v := makeVersion(t, ks, in, 6, 2)
	v.Blocks[0].Body.Txs = append(v.Blocks[0].Body.Txs, types.Transaction{Client: 666})
	if in.rec.validVersion(&v, 6) {
		t.Fatal("version with body/header mismatch accepted")
	}
}

func TestValidVersionRejectsWrongInstance(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	start := in.rec.startRound(6)
	anchor, _ := in.chain.HeaderAt(start - 1)
	blk, err := types.NewBlock(9 /* other worker */, start, 1, anchor.Hash(), nil, ks.Privs[1])
	if err != nil {
		t.Fatal(err)
	}
	v := versionMsg{Instance: 0, RecRound: 6, From: 1, Blocks: []types.Block{blk}}
	if in.rec.validVersion(&v, 6) {
		t.Fatal("version holding another instance's block accepted")
	}
}

func TestRecoveryHandleOrderedFiltersAndDedupes(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	v := makeVersion(t, ks, in, 6, 2)
	sig, err := ks.Privs[1].Sign(versionSigBody(v.Instance, v.RecRound, v.From, v.Blocks))
	if err != nil {
		t.Fatal(err)
	}
	v.Sig = sig
	e := types.NewEncoder(0)
	v.encode(e)
	req := e.Bytes()

	if !in.HandleOrdered(req) {
		t.Fatal("valid version not consumed")
	}
	in.HandleOrdered(req) // duplicate sender: ignored
	in.rec.mu.Lock()
	got := len(in.rec.state(6).versions)
	in.rec.mu.Unlock()
	if got != 1 {
		t.Fatalf("stored %d versions, want 1 (dedup by sender)", got)
	}

	// A version with a forged sender signature never enters the state.
	forged := v
	forged.From = 2 // signature was made by node 1
	e2 := types.NewEncoder(0)
	forged.encode(e2)
	in.HandleOrdered(e2.Bytes())
	in.rec.mu.Lock()
	got = len(in.rec.state(6).versions)
	in.rec.mu.Unlock()
	if got != 1 {
		t.Fatal("forged-attribution version accepted")
	}

	// Unrelated tags are left for other consumers.
	if in.HandleOrdered([]byte{0x01, 1, 2, 3}) {
		t.Fatal("BBC-tagged request consumed by recovery")
	}
	if in.HandleOrdered(nil) {
		t.Fatal("empty request consumed")
	}
}

func TestVersionTip(t *testing.T) {
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	v := makeVersion(t, ks, in, 6, 3)
	if v.tip() != in.rec.startRound(6)+2 {
		t.Fatalf("tip = %d", v.tip())
	}
	empty := versionMsg{}
	if empty.tip() != 0 {
		t.Fatal("empty version tip should be 0")
	}
}

// TestDecodeVersionMsgOversizedCountPoisons is the regression test for the
// oversized-count handling: a block count beyond the 1<<16 bound must
// poison the decoder so callers reject the frame even when the remaining
// bytes happen to line up with a clean end-of-buffer.
func TestDecodeVersionMsgOversizedCountPoisons(t *testing.T) {
	e := types.NewEncoder(64)
	e.Uint32(0)         // instance
	e.Uint64(5)         // recovery round
	e.Int64(1)          // from
	e.Uint32(1<<16 + 1) // block count beyond the bound — and nothing after
	d := types.NewDecoder(e.Bytes())
	decodeVersionMsg(d)
	if d.Finish() == nil {
		t.Fatal("oversized block count must poison the decoder")
	}

	// And HandleOrdered must reject the whole frame.
	ks := testKeySet(t, 4)
	in := newBareInstance(t, ks, 6)
	full := append([]byte{RecoveryTag}, e.Bytes()...)
	in.HandleOrdered(full)
	in.rec.mu.Lock()
	got := len(in.rec.state(5).versions)
	in.rec.mu.Unlock()
	if got != 0 {
		t.Fatal("oversized version accepted into recovery state")
	}
}

// TestFetchBlockEndsWhenChainPassesRound: recovery catch-up fetches a round
// that no peer serves (every peer compacted it away). A snapshot install
// that moves the chain past that round must end the fetch, or the round
// loop stays parked in it for good.
func TestFetchBlockEndsWhenChainPassesRound(t *testing.T) {
	ks := testKeySet(t, 4)
	net := transport.NewChanNetwork(transport.ChanConfig{N: 4})
	t.Cleanup(net.Close)
	chain := NewChain(0)
	dp, _, _ := newTestDataPath(t, net, ks, 0, chain, 8)
	done := make(chan bool, 1)
	go func() {
		_, ok := dp.fetchBlock(10, nil)
		done <- ok
	}()
	select {
	case <-done:
		t.Fatal("fetch of an unserved round returned before the chain moved")
	case <-time.After(100 * time.Millisecond):
	}
	if err := chain.ResetForward(20, flcrypto.Hash{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("fetch returned a block for a round nobody served")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch still waiting after the chain moved past its round")
	}
}
