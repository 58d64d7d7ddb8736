package flo

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/store"
	"repro/internal/transport"
)

// runSnapshotStateRestore checks the application state that rides in the
// worker checkpoints at a given ω. Every node runs the in-memory backend;
// after several checkpoint cycles the cluster is stopped and each worker's
// snapshot file is opened directly. Each stored state must be one capture
// taken at the merge point on a completed checkpoint cycle, must cover that
// worker exactly through the snapshot's StateRound, and must hold exactly
// the transactions its positions account for. The cluster is then rebooted
// from disk, and each restored replica must start at or past every
// worker's checkpoint with the same exact count before it delivers anything
// new.
func runSnapshotStateRestore(t *testing.T, workers int) {
	const (
		n             = 4
		batch         = 4
		snapshotEvery = 5
	)
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i))
	}

	type world struct {
		nodes []*Node
		net   *transport.ChanNetwork
	}
	build := func() *world {
		w := &world{net: transport.NewChanNetwork(transport.ChanConfig{N: n})}
		for i := 0; i < n; i++ {
			node, err := NewNode(Config{
				Endpoint:      w.net.Endpoint(flcrypto.NodeID(i)),
				Registry:      ks.Registry,
				Priv:          ks.Privs[i],
				Workers:       workers,
				BatchSize:     batch,
				Saturate:      32,
				DataDir:       dirs[i],
				SnapshotEvery: snapshotEvery,
				CatchUpBatch:  8,
				InitialTimer:  40 * time.Millisecond,
				State:         statemachine.NewKV(),
			})
			if err != nil {
				t.Fatal(err)
			}
			w.nodes = append(w.nodes, node)
		}
		return w
	}
	start := func(w *world) {
		for _, node := range w.nodes {
			node.Start()
		}
	}
	stop := func(w *world) {
		for _, node := range w.nodes {
			node.Stop()
		}
		w.net.Close()
	}
	waitPos := func(w *world, target uint64) {
		t.Helper()
		deadline := time.Now().Add(90 * time.Second)
		for {
			done := true
			for _, node := range w.nodes {
				for wk := 0; wk < workers; wk++ {
					if node.State().Position(uint32(wk)) < target {
						done = false
						break
					}
				}
				if !done {
					break
				}
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replicas stalled before position %d", target)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// exactCount: every definite block under the saturating model carries
	// exactly BatchSize transactions, so a replica whose per-worker
	// positions sum to S must have applied exactly batch·S of them. A state
	// captured while a block was half applied, a lost round or a
	// double-applied round all break this count.
	exactCount := func(what string, rep *statemachine.Replica) {
		t.Helper()
		var sum uint64
		for wk := 0; wk < workers; wk++ {
			sum += rep.Position(uint32(wk))
		}
		if got, want := rep.KV().Applied(), batch*sum; got != want {
			t.Fatalf("%s: applied %d txs at summed position %d, want %d", what, got, sum, want)
		}
	}

	// Session 1: several checkpoint cycles.
	w := build()
	start(w)
	waitPos(w, 17)
	stop(w)

	snaps := make([][]store.Snapshot, n)
	for i := 0; i < n; i++ {
		for wk := 0; wk < workers; wk++ {
			what := fmt.Sprintf("node %d worker %d checkpoint", i, wk)
			s, ok, err := store.LoadSnapshot(filepath.Join(dirs[i], fmt.Sprintf("w%d.snap", wk)))
			if err != nil || !ok {
				t.Fatalf("%s: load: ok=%v err=%v", what, ok, err)
			}
			if s.StateRound == 0 || len(s.State) == 0 {
				t.Fatalf("%s carries no application state (state round %d, %d bytes)", what, s.StateRound, len(s.State))
			}
			// The log is never compacted past the application checkpoint:
			// every round the state does not cover stays replayable.
			if s.BaseRound > s.StateRound {
				t.Fatalf("%s: log base %d above state round %d", what, s.BaseRound, s.StateRound)
			}
			rep, err := statemachine.RestoreReplica(s.State)
			if err != nil {
				t.Fatalf("%s: restore: %v", what, err)
			}
			// The state covers this worker exactly through StateRound:
			// restore re-applies precisely the rounds above it.
			if pos := rep.Position(uint32(wk)); pos != s.StateRound {
				t.Fatalf("%s: state at position %d, snapshot anchored at %d", what, pos, s.StateRound)
			}
			// One capture per completed merge cycle: the state's merged
			// cursor is the last worker's block at a checkpoint round.
			if cw, cr := rep.Cursor(); int(cw) != workers-1 || cr == 0 || cr%snapshotEvery != 0 {
				t.Fatalf("%s: state captured at merged cursor (w%d, r%d), want the last worker at a multiple of %d",
					what, cw, cr, snapshotEvery)
			}
			exactCount(what, rep)
			snaps[i] = append(snaps[i], s)
		}
	}

	// Session 2: reboot from the compacted logs. Before any new delivery
	// the restored replica already covers every worker's checkpoint, and
	// checkpoint plus replayed suffix applied each round exactly once.
	w = build()
	for i, node := range w.nodes {
		rep := node.State()
		for wk := 0; wk < workers; wk++ {
			if node.Worker(wk).Chain().Base() == 0 {
				t.Fatalf("node %d worker %d rebooted without a snapshot base", i, wk)
			}
			if pos, sr := rep.Position(uint32(wk)), snaps[i][wk].StateRound; pos < sr {
				t.Fatalf("node %d worker %d restored at position %d below its checkpoint %d", i, wk, pos, sr)
			}
		}
		exactCount(fmt.Sprintf("node %d at reboot", i), rep)
	}
	start(w)
	waitPos(w, 20)
	stop(w) // quiesce: all deliveries done once Stop returns
	for i, node := range w.nodes {
		exactCount(fmt.Sprintf("node %d after restart", i), node.State())
	}
}

func TestFLOSnapshotStateRestore(t *testing.T) {
	runSnapshotStateRestore(t, 1)
}

// TestFLOSnapshotStateRestoreMultiWorker is the ω=4 variant: the per-worker
// checkpoints share one state capture anchored at the merged cursor, and
// each worker's snapshot still names exactly the rounds restore must
// re-apply for that worker.
func TestFLOSnapshotStateRestoreMultiWorker(t *testing.T) {
	runSnapshotStateRestore(t, 4)
}
