package clientapi

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/store"
	"repro/internal/types"
)

// fakeNode implements Node over a real store.BlockLog (single worker): the
// deterministic harness for the block-streaming engine. Tests drive the
// "cluster" by appending blocks and announcing them to subscribers — so a
// replay-vs-live race never depends on consensus timing.
type fakeNode struct {
	t   *testing.T
	log *store.BlockLog

	mu      sync.Mutex
	subs    map[uint64]func(uint32, types.Block)
	nextSub uint64
	clients map[uint64]bool
	submits []types.Transaction
}

func newFakeNode(t *testing.T, log *store.BlockLog) *fakeNode {
	return &fakeNode{
		t:       t,
		log:     log,
		subs:    make(map[uint64]func(uint32, types.Block)),
		clients: make(map[uint64]bool),
	}
}

func (f *fakeNode) ID() flcrypto.NodeID { return 0 }
func (f *fakeNode) N() int              { return 4 }
func (f *fakeNode) Workers() int        { return 1 }

func (f *fakeNode) Submit(tx types.Transaction) error {
	f.mu.Lock()
	f.submits = append(f.submits, tx)
	f.mu.Unlock()
	return nil
}

func (f *fakeNode) SubscribeDeliver(fn func(uint32, types.Block)) func() {
	f.mu.Lock()
	id := f.nextSub
	f.nextSub++
	f.subs[id] = fn
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		delete(f.subs, id)
		f.mu.Unlock()
	}
}

func (f *fakeNode) ReadDefinite(w uint32, from uint64, max int) ([]types.Block, error) {
	if w != 0 {
		return nil, fmt.Errorf("fake: worker %d out of range", w)
	}
	return f.log.ReadFrom(from, max)
}

func (f *fakeNode) RegisterClient(id uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.clients[id] {
		return fmt.Errorf("fake: client %d already registered", id)
	}
	f.clients[id] = true
	return nil
}

func (f *fakeNode) UnregisterClient(id uint64) {
	f.mu.Lock()
	delete(f.clients, id)
	f.mu.Unlock()
}

func (f *fakeNode) DeliveredBlocks() uint64 { return f.log.Tip() }
func (f *fakeNode) DeliveredTxs() uint64    { return 0 }

func (f *fakeNode) PoolPending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.submits)
}

// State reads: the fake mirrors a node without a configured backend.
func (f *fakeNode) StateGet(ctx context.Context, key string, worker uint32, round uint64) ([]byte, bool, error) {
	return nil, false, statemachine.ErrNoState
}

func (f *fakeNode) StateScan(ctx context.Context, begin, end string, max int, worker uint32, round uint64) ([]statemachine.Entry, error) {
	return nil, statemachine.ErrNoState
}

func (f *fakeNode) StateWatch(ctx context.Context, key string, worker uint32, round uint64) (<-chan statemachine.KeyUpdate, func(), error) {
	return nil, nil, statemachine.ErrNoState
}

// deliver appends blk to the log and announces it to subscribers — the
// fake's stand-in for a definite decision plus merged delivery.
func (f *fakeNode) deliver(blk types.Block) {
	if err := f.log.Append(blk); err != nil {
		f.t.Errorf("fake append: %v", err)
	}
	f.mu.Lock()
	subs := make([]func(uint32, types.Block), 0, len(f.subs))
	for _, fn := range f.subs {
		subs = append(subs, fn)
	}
	f.mu.Unlock()
	for _, fn := range subs {
		fn(0, blk)
	}
}

// buildChainBlocks produces a linked single-worker chain of n blocks.
func buildChainBlocks(t *testing.T, ks *flcrypto.KeySet, n int) []types.Block {
	t.Helper()
	prev := types.GenesisHeader(0).Hash()
	var out []types.Block
	for r := 1; r <= n; r++ {
		proposer := (r - 1) % ks.Registry.N()
		blk, err := types.NewBlock(0, uint64(r), flcrypto.NodeID(proposer), prev,
			[]types.Transaction{{Client: 900, Seq: uint64(r), Payload: []byte{byte(r)}}},
			ks.Privs[proposer])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
		prev = blk.Hash()
	}
	return out
}

// TestStreamReplayAcrossCompaction is the reconnect-replay contract: a
// cursor into the retained tail of a checkpointed (compacted) log replays
// the historical suffix — across the compaction rewrite — and hands over to
// the live tail with no gap and no duplicate.
func TestStreamReplayAcrossCompaction(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	log, _, err := store.Open(filepath.Join(dir, "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	blocks := buildChainBlocks(t, ks, 40)
	for _, blk := range blocks[:30] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	// Compact: retain 13 rounds below the tip → base 17; rounds 1..17 are
	// gone from the log, exactly what a client that lingered too long sees.
	if err := log.Checkpoint(filepath.Join(dir, "w0.snap"), 0, 0, nil, 13); err != nil {
		t.Fatal(err)
	}
	if log.Base() != 17 {
		t.Fatalf("base = %d, want 17", log.Base())
	}

	node := newFakeNode(t, log)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events := Blocks(ctx, node, Cursor{Worker: 0, Round: 23}, Filter{})

	next := uint64(23)
	recv := func(why string) {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok || ev.Err != nil {
				t.Fatalf("%s: stream ended early: %v", why, ev.Err)
			}
			if r := ev.Block.Signed.Header.Round; r != next {
				t.Fatalf("%s: got round %d, want %d (gap or duplicate)", why, r, next)
			}
			if ev.Block.Hash() != blocks[next-1].Hash() {
				t.Fatalf("%s: round %d content mismatch", why, next)
			}
			next++
		case <-ctx.Done():
			t.Fatalf("%s: timed out waiting for round %d", why, next)
		}
	}

	// Historical suffix 23..30 from the compacted log.
	for next <= 30 {
		recv("replay")
	}
	// Live tail: new blocks delivered while the stream is attached.
	for _, blk := range blocks[30:] {
		node.deliver(blk)
	}
	for next <= 40 {
		recv("live tail")
	}
	cancel()
	for ev := range events {
		if ev.Err != nil {
			t.Fatalf("canceled stream ended with %v", ev.Err)
		}
		t.Fatalf("extra block after round 40: round %d", ev.Block.Signed.Header.Round)
	}
}

// TestStreamCursorBelowRetainedHistory: a cursor at or below the compaction
// base cannot be served and must fail loudly with the typed error, not
// stream a gapped history; a cursor naming a worker the node does not run
// fails the same way it does on a remote session.
func TestStreamCursorBelowRetainedHistory(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	log, _, err := store.Open(filepath.Join(dir, "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, blk := range buildChainBlocks(t, ks, 30) {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Checkpoint(filepath.Join(dir, "w0.snap"), 0, 0, nil, 13); err != nil {
		t.Fatal(err)
	}

	node := newFakeNode(t, log)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	terminal := func(cur Cursor) error {
		t.Helper()
		var last error
		n := 0
		for ev := range Blocks(ctx, node, cur, Filter{}) {
			if ev.Err == nil {
				t.Fatalf("cursor %+v: got a block (round %d)", cur, ev.Block.Signed.Header.Round)
			}
			last = ev.Err
			n++
		}
		if n != 1 {
			t.Fatalf("cursor %+v: %d terminal events, want 1", cur, n)
		}
		return last
	}
	if err := terminal(Cursor{Worker: 0, Round: 5}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stream below base ended with %v, want ErrCompacted", err)
	}
	if err := terminal(Cursor{Worker: 3, Round: 1}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("stream from worker 3 of ω=1 ended with %v, want out of range", err)
	}
}

// TestRemoteCursorBelowRetainedHistoryTyped: the compaction error must
// survive the wire as a typed error — a remote consumer detects the gap
// with errors.Is exactly like an in-process one.
func TestRemoteCursorBelowRetainedHistoryTyped(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	log, _, err := store.Open(filepath.Join(dir, "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, blk := range buildChainBlocks(t, ks, 30) {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Checkpoint(filepath.Join(dir, "w0.snap"), 0, 0, nil, 13); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(newFakeNode(t, log), ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), 1, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, err := c.Subscribe(ctx, Cursor{Worker: 0, Round: 5}) // below base 17
	if err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed without the typed compaction error")
			}
			if ev.Err == nil {
				t.Fatalf("got a block (round %d) from below retained history", ev.Block.Signed.Header.Round)
			}
			if !errors.Is(ev.Err, ErrCompacted) {
				t.Fatalf("terminal error %v is not ErrCompacted", ev.Err)
			}
			return
		case <-ctx.Done():
			t.Fatal("timed out waiting for the terminal event")
		}
	}
}

// TestStreamSlowConsumerFallsBackToReplay: an in-process reader that
// stalls while more than the hub ring's worth of blocks is delivered is
// parked, demoted to cohort replay, and served from the log at its own pace
// once it drains — the delivery path never blocks, every block arrives
// exactly once, and no block is ever encoded for the wire.
func TestStreamSlowConsumerFallsBackToReplay(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	log, _, err := store.Open(filepath.Join(t.TempDir(), "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	// Beyond the ring plus everything the stream itself buffers (sink
	// queue, the forwarder's batch, the event channel).
	total := hubRingCap + 3*inprocQueueCap + 200
	blocks := buildChainBlocks(t, ks, total)

	node := newFakeNode(t, log)
	// Closed only on success: a hub whose delivery path blocked cannot
	// close, and the test must fail rather than hang.
	hub := NewHub(node, HubConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	events := make(chan BlockEvent, inprocQueueCap)
	go func() {
		defer close(events)
		hub.stream(ctx, Cursor{}, Filter{}, events)
	}()

	next := uint64(1)
	recv := func() {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok || ev.Err != nil {
				t.Fatalf("stream ended at round %d/%d: %v", next, total, ev.Err)
			}
			if r := ev.Block.Signed.Header.Round; r != next {
				t.Fatalf("got round %d, want %d (gap or duplicate)", r, next)
			}
			next++
		case <-ctx.Done():
			t.Fatalf("timed out at round %d/%d", next, total)
		}
	}

	// One block puts the stream on the live tail (the cohort that served
	// the empty history promotes it); then the reader stalls while the rest
	// floods in.
	node.deliver(blocks[0])
	recv()
	for hub.Stats().LiveSubs != 1 {
		select {
		case <-ctx.Done():
			t.Fatal("stream never reached the live tier")
		case <-time.After(time.Millisecond):
		}
	}
	flooded := make(chan struct{})
	go func() {
		for _, blk := range blocks[1:] {
			node.deliver(blk)
		}
		close(flooded)
	}()
	select {
	case <-flooded:
	case <-time.After(30 * time.Second):
		t.Fatal("delivery blocked on a stalled in-process reader")
	}
	for next <= uint64(total) {
		recv()
	}
	select {
	case ev := <-events:
		t.Fatalf("extra event after the last block: %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
	st := hub.Stats()
	if st.Demotions == 0 || st.CohortReplays == 0 {
		t.Fatalf("stalled reader was never demoted to replay: %+v", st)
	}
	if st.FramesEncoded != 0 {
		t.Fatalf("in-process subscribers caused %d frame encodes, want 0", st.FramesEncoded)
	}
	cancel()
	hub.Close()
}

// TestCursorArithmetic pins the merged-order cursor algebra the protocol's
// resume semantics rest on.
func TestCursorArithmetic(t *testing.T) {
	if (Cursor{}).pos(3) != 0 {
		t.Fatal("zero cursor must be position 0")
	}
	c := Cursor{Worker: 0, Round: 1}
	want := []Cursor{{1, 1}, {2, 1}, {0, 2}, {1, 2}, {2, 2}, {0, 3}}
	for i, w := range want {
		c = c.Next(3)
		if c != w {
			t.Fatalf("step %d: got %+v, want %+v", i, c, w)
		}
	}
	if p := (Cursor{Worker: 2, Round: 5}).pos(3); p != 14 {
		t.Fatalf("pos(2,5) with ω=3 = %d, want 14", p)
	}
}
