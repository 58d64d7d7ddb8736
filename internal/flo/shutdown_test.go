package flo

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
)

// TestStopLeaksNoGoroutines is the shutdown regression test: a full
// start/run/stop cycle of a multi-worker cluster must return the process to
// its baseline goroutine count. This guards the whole teardown chain — the
// per-worker rbroadcast services (which were historically never retained or
// stopped), the per-proto transport mailboxes, the PBFT event loop, the
// worker round loops, and the verify pool.
func TestStopLeaksNoGoroutines(t *testing.T) {
	// Settle any goroutines left over from other tests before baselining.
	settled := func() int {
		best := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			if n := runtime.NumGoroutine(); n <= best {
				best = n
			}
		}
		return best
	}
	before := settled()

	const n = 4
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	var nodes []*Node
	for i := 0; i < n; i++ {
		node, err := NewNode(Config{
			Endpoint:     net.Endpoint(flcrypto.NodeID(i)),
			Registry:     ks.Registry,
			Priv:         ks.Privs[i],
			Workers:      3, // multiple workers = multiple rbroadcast services
			BatchSize:    10,
			Saturate:     64,
			InitialTimer: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for _, node := range nodes {
		node.Start()
	}
	// Let the cluster actually do work so every goroutine family spins up.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].Worker(0).Chain().Definite() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("cluster made no progress before shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, node := range nodes {
		node.Stop()
	}
	net.Close()

	// Settle loop: give detached goroutines (timers, draining callbacks)
	// time to exit before declaring a leak.
	var after int
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 { // tolerate runtime/test harness jitter
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines: %d before, %d after stop\n%s", before, after, buf[:runtime.Stack(buf, true)])
}

// TestStopWithWorkerInEvidenceWait: a node whose peers are silent drives
// its worker's round through OBBC vote starvation into the OB12 evidence
// wait, where no reply will ever come. Stop must still return promptly:
// that wait ends only on an abort or on the OBBC service's own stop, so
// teardown must not wait on the worker before signalling the services its
// round loop may be parked in.
func TestStopWithWorkerInEvidenceWait(t *testing.T) {
	const n = 4
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	defer net.Close()
	node, err := NewNode(Config{
		Endpoint:     net.Endpoint(0), // peers 1..3 never start: silent
		Registry:     ks.Registry,
		Priv:         ks.Privs[0],
		BatchSize:    10,
		Saturate:     64,
		InitialTimer: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	inPropose := func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("internal/obbc.(*Service).Propose"))
	}
	deadline := time.Now().Add(10 * time.Second)
	for !inPropose() {
		if time.Now().After(deadline) {
			t.Fatal("worker never entered OBBC Propose")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Entering the evidence wait is not observable from outside: it follows
	// the fast path's vote starvation (starvedRetries·retryInterval = 3 s).
	time.Sleep(3500 * time.Millisecond)
	if !inPropose() {
		t.Fatal("worker left OBBC Propose with every peer silent")
	}
	done := make(chan struct{})
	go func() {
		node.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Stop hung with a worker in the evidence wait\n%s", buf[:runtime.Stack(buf, true)])
	}
}
