package flo

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// mkBlock builds a minimal block tagged with (worker, round) for merger
// ordering checks; the merger never inspects signatures.
func mkBlock(worker uint32, round uint64) types.Block {
	return types.Block{Signed: types.SignedHeader{
		Header: types.BlockHeader{Instance: worker, Round: round},
	}}
}

func TestMergerRoundRobinOrder(t *testing.T) {
	type rec struct {
		w     uint32
		round uint64
	}
	var out []rec
	m := newMerger(3, func(w uint32, blk types.Block) {
		out = append(out, rec{w, blk.Signed.Header.Round})
	})
	// Worker 1 races ahead; nothing is delivered until worker 0 produces,
	// then the round-robin interleaves strictly.
	m.enqueue(1)(mkBlock(1, 1))
	m.enqueue(1)(mkBlock(1, 2))
	m.enqueue(2)(mkBlock(2, 1))
	if len(out) != 0 {
		t.Fatalf("delivered before worker 0 produced: %v", out)
	}
	m.enqueue(0)(mkBlock(0, 1))
	// Now 0:1, 1:1, 2:1 flush, then the cursor waits at worker 0 again.
	want := []rec{{0, 1}, {1, 1}, {2, 1}}
	if len(out) != len(want) {
		t.Fatalf("delivered %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("delivered %v, want %v", out, want)
		}
	}
	m.enqueue(0)(mkBlock(0, 2))
	m.enqueue(2)(mkBlock(2, 2))
	// 0:2 then 1:2 (queued earlier) then 2:2.
	want = append(want, rec{0, 2}, rec{1, 2}, rec{2, 2})
	if len(out) != len(want) {
		t.Fatalf("delivered %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("delivered %v, want %v", out, want)
		}
	}
	if m.delivered.Load() != 6 {
		t.Fatalf("delivered counter = %d", m.delivered.Load())
	}
}

func TestMergerSingleWorkerPassThrough(t *testing.T) {
	var rounds []uint64
	m := newMerger(1, func(_ uint32, blk types.Block) {
		rounds = append(rounds, blk.Signed.Header.Round)
	})
	for r := uint64(1); r <= 5; r++ {
		m.enqueue(0)(mkBlock(0, r))
	}
	if len(rounds) != 5 {
		t.Fatalf("delivered %d blocks", len(rounds))
	}
	for i, r := range rounds {
		if r != uint64(i+1) {
			t.Fatalf("order broken: %v", rounds)
		}
	}
}

func TestMergerCountsTxs(t *testing.T) {
	m := newMerger(1, func(uint32, types.Block) {})
	blk := mkBlock(0, 1)
	blk.Body.Txs = make([]types.Transaction, 7)
	m.enqueue(0)(blk)
	if m.txs.Load() != 7 {
		t.Fatalf("txs = %d", m.txs.Load())
	}
}

// TestMergerConcurrentGlobalOrder is the regression test for the
// out-of-order delivery bug: with delivery outside the merger's lock, two
// workers' OnDecide goroutines could each pop a ready run and race to emit
// it, corrupting the global order. Four goroutines hammer the merger
// concurrently; every observer-visible prefix must be the strict
// round-robin sequence, and the counters must match what was emitted.
func TestMergerConcurrentGlobalOrder(t *testing.T) {
	const (
		workers = 4
		rounds  = 300
	)
	type rec struct {
		w     uint32
		round uint64
	}
	var mu sync.Mutex
	var out []rec
	var misordered atomic.Bool
	m := newMerger(workers, func(w uint32, blk types.Block) {
		mu.Lock()
		i := len(out)
		out = append(out, rec{w, blk.Signed.Header.Round})
		// Check the invariant at append time: entry i must be worker i%W
		// at round i/W+1.
		if w != uint32(i%workers) || blk.Signed.Header.Round != uint64(i/workers)+1 {
			misordered.Store(true)
		}
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		enq := m.enqueue(uint32(w))
		go func(w uint32) {
			defer wg.Done()
			for r := uint64(1); r <= rounds; r++ {
				enq(mkBlock(w, r))
			}
		}(uint32(w))
	}
	wg.Wait()

	if misordered.Load() {
		t.Fatal("global order violated under concurrent OnDecide")
	}
	if len(out) != workers*rounds {
		t.Fatalf("delivered %d blocks, want %d", len(out), workers*rounds)
	}
	if m.delivered.Load() != uint64(workers*rounds) {
		t.Fatalf("delivered counter %d disagrees with observed %d", m.delivered.Load(), len(out))
	}
	// The explicit merged cursor must have tracked every worker to its tip.
	for w := 0; w < workers; w++ {
		if m.lastDelivered[w] != rounds {
			t.Fatalf("worker %d merged cursor at %d, want %d", w, m.lastDelivered[w], rounds)
		}
	}
}

// TestMergerNonBlockingEnqueue pins the lock-light merge-point contract:
// a worker's OnDecide must hand its block over and return even while
// another worker's delivery is in flight — per-worker pipelines never stall
// on the merge point. The parked emitter then picks the block up via its
// post-unlock re-check (the lost-wakeup window this design must close).
func TestMergerNonBlockingEnqueue(t *testing.T) {
	inDeliver := make(chan struct{})
	release := make(chan struct{})
	var m *merger
	m = newMerger(2, func(w uint32, blk types.Block) {
		if w == 0 && blk.Signed.Header.Round == 1 {
			close(inDeliver)
			<-release
		}
	})
	go m.enqueue(0)(mkBlock(0, 1)) // becomes the emitter and parks in deliver
	<-inDeliver

	done := make(chan struct{})
	go func() {
		m.enqueue(1)(mkBlock(1, 1))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue blocked behind an in-flight delivery")
	}
	if got := m.delivered.Load(); got != 1 {
		t.Fatalf("delivered %d blocks while the emitter was parked, want 1", got)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for m.delivered.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("emitter never picked up the concurrently enqueued block (delivered=%d)", m.delivered.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if m.lastDelivered[0] != 1 || m.lastDelivered[1] != 1 {
		t.Fatalf("merged cursor %v, want [1 1]", m.lastDelivered)
	}
}

// TestInstallSnapshotFencesDelivery: a block that reaches the merge point
// while a snapshot install is still in progress is delivered only once the
// install is complete — after the state reset and after the install
// notification — and is not left queued: the install emits it on its way
// out. The notification enqueues the worker's next block itself, the
// tightest form of the race between a resumed stream and the install note.
func TestInstallSnapshotFencesDelivery(t *testing.T) {
	const n, base = 4, 5
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	defer net.Close()
	txBlock := func(round uint64) types.Block {
		blk := mkBlock(0, round)
		blk.Body.Txs = []types.Transaction{{Client: 1, Seq: round, Payload: []byte{byte(round)}}}
		return blk
	}
	src := statemachine.NewReplica()
	for r := uint64(1); r <= base; r++ {
		src.Deliver(0, txBlock(r))
	}

	type delivery struct {
		round     uint64
		afterNote bool
	}
	var (
		node     *Node
		notified bool
		got      []delivery
	)
	node, err := NewNode(Config{
		Endpoint: net.Endpoint(0),
		Registry: ks.Registry,
		Priv:     ks.Privs[0],
		DataDir:  t.TempDir(),
		State:    statemachine.NewKV(),
		Deliver: func(w uint32, blk types.Block) {
			got = append(got, delivery{blk.Signed.Header.Round, notified})
		},
		OnSnapshotInstall: func(w uint32, b uint64) {
			node.merger.enqueue(w)(txBlock(b + 1))
			notified = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	snap := store.Snapshot{Instance: 0, BaseRound: base, StateRound: base, State: src.Snapshot()}
	if err := node.installSnapshot(0, snap); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].round != base+1 {
		t.Fatalf("deliveries %v, want exactly round %d", got, base+1)
	}
	if !got[0].afterNote {
		t.Fatal("round after the install base was delivered before the install notification")
	}
	// One transaction per round: the installed state plus the fenced block,
	// applied on top of the installed state rather than the discarded one.
	rep := node.State()
	if pos, applied := rep.Position(0), rep.KV().Applied(); pos != base+1 || applied != base+1 {
		t.Fatalf("replica at position %d with %d txs applied, want %d and %d", pos, applied, base+1, base+1)
	}
}
