package pbft

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
)

const testProto transport.ProtoID = 3

type testCluster struct {
	t        *testing.T
	net      *transport.ChanNetwork
	muxes    []*transport.Mux
	replicas []*Replica

	mu        sync.Mutex
	delivered [][]string // per replica, flattened request log in delivery order
}

func newTestCluster(t *testing.T, n int, tweak func(*Config)) *testCluster {
	t.Helper()
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	c := &testCluster{
		t:         t,
		net:       transport.NewChanNetwork(transport.ChanConfig{N: n}),
		delivered: make([][]string, n),
	}
	for i := 0; i < n; i++ {
		i := i
		mux := transport.NewMux(c.net.Endpoint(flcrypto.NodeID(i)))
		cfg := Config{
			Mux:         mux,
			Proto:       testProto,
			Registry:    ks.Registry,
			Priv:        ks.Privs[i],
			ViewTimeout: 250 * time.Millisecond,
			Tick:        10 * time.Millisecond,
			Deliver: func(seq uint64, batch [][]byte) {
				c.mu.Lock()
				for _, req := range batch {
					c.delivered[i] = append(c.delivered[i], string(req))
				}
				c.mu.Unlock()
			},
		}
		if tweak != nil {
			tweak(&cfg)
		}
		r := NewReplica(cfg)
		c.muxes = append(c.muxes, mux)
		c.replicas = append(c.replicas, r)
		mux.Start()
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range c.replicas {
			r.Stop()
		}
		for _, m := range c.muxes {
			m.Stop()
		}
		c.net.Close()
	})
	return c
}

// waitDelivered blocks until every replica in `who` has delivered at least
// `count` requests, or the deadline passes.
func (c *testCluster) waitDelivered(who []int, count int, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := true
		c.mu.Lock()
		for _, i := range who {
			if len(c.delivered[i]) < count {
				done = false
				break
			}
		}
		c.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			c.mu.Lock()
			counts := make([]int, len(c.delivered))
			for i := range c.delivered {
				counts[i] = len(c.delivered[i])
			}
			c.mu.Unlock()
			c.t.Fatalf("timed out waiting for %d deliveries; have %v", count, counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkPrefixAgreement verifies the delivered logs are prefix-comparable.
func (c *testCluster) checkPrefixAgreement(who []int) {
	c.t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, i := range who {
		for _, j := range who {
			a, b := c.delivered[i], c.delivered[j]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if a[k] != b[k] {
					c.t.Fatalf("order divergence at %d: replica %d=%q, replica %d=%q", k, i, a[k], j, b[k])
				}
			}
		}
	}
}

func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPBFTBasicOrdering(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	for k := 0; k < 10; k++ {
		if err := c.replicas[0].Submit([]byte(fmt.Sprintf("req-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDelivered(all(4), 10, 5*time.Second)
	c.checkPrefixAgreement(all(4))
}

func TestPBFTConcurrentSubmitters(t *testing.T) {
	const n = 4
	c := newTestCluster(t, n, nil)
	const per = 25
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := c.replicas[i].Submit([]byte(fmt.Sprintf("n%d-req%d", i, k))); err != nil {
					t.Errorf("submit: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	c.waitDelivered(all(n), n*per, 10*time.Second)
	c.checkPrefixAgreement(all(n))
	// Exactly-once delivery.
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		seen := make(map[string]bool)
		for _, req := range c.delivered[i] {
			if seen[req] {
				t.Fatalf("replica %d delivered %q twice", i, req)
			}
			seen[req] = true
		}
		if len(seen) != n*per {
			t.Fatalf("replica %d delivered %d unique requests, want %d", i, len(seen), n*per)
		}
	}
}

func TestPBFTDuplicateSubmitDeliveredOnce(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	req := []byte("same request")
	for k := 0; k < 3; k++ {
		if err := c.replicas[1].Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.replicas[2].Submit([]byte("marker")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(all(4), 2, 5*time.Second)
	time.Sleep(200 * time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	count := 0
	for _, r := range c.delivered[0] {
		if r == "same request" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate request delivered %d times", count)
	}
}

func TestPBFTLeaderCrashViewChange(t *testing.T) {
	const n = 4
	c := newTestCluster(t, n, nil)
	// Warm up under leader 0.
	if err := c.replicas[1].Submit([]byte("before crash")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(all(n), 1, 5*time.Second)

	// Crash the leader of view 0 (node 0). Remaining replicas must rotate
	// to view 1 and keep ordering.
	c.net.Crash(0)
	rest := []int{1, 2, 3}
	for k := 0; k < 5; k++ {
		if err := c.replicas[1].Submit([]byte(fmt.Sprintf("after-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDelivered(rest, 6, 15*time.Second)
	c.checkPrefixAgreement(rest)
	if vc := c.replicas[1].Metrics().ViewChanges.Load(); vc == 0 {
		t.Fatal("no view change recorded despite leader crash")
	}
}

func TestPBFTSuccessiveLeaderCrashes(t *testing.T) {
	// n=7 tolerates f=2: crash leaders of views 0 and 1; the cluster must
	// settle on view 2.
	const n = 7
	c := newTestCluster(t, n, nil)
	if err := c.replicas[3].Submit([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(all(n), 1, 5*time.Second)
	c.net.Crash(0)
	c.net.Crash(1)
	rest := []int{2, 3, 4, 5, 6}
	for k := 0; k < 3; k++ {
		if err := c.replicas[4].Submit([]byte(fmt.Sprintf("x-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDelivered(rest, 4, 30*time.Second)
	c.checkPrefixAgreement(rest)
}

// TestPBFTLostRequestRetransmitted: a request whose broadcast reached every
// replica but the leader must still be ordered while other requests keep
// the cluster busy. Their progress keeps postponing the leader-failure
// timer, so no view change comes to the rescue; the replicas holding the
// request have to re-send it.
func TestPBFTLostRequestRetransmitted(t *testing.T) {
	const n = 4
	c := newTestCluster(t, n, nil)
	if err := c.replicas[2].Submit([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(all(n), 1, 5*time.Second)

	// Replica 1's request never reaches the view-0 leader.
	c.net.SetLinkFilter(func(from, to flcrypto.NodeID) bool { return from == 1 && to == 0 })
	if err := c.replicas[1].Submit([]byte("lost on the way")); err != nil {
		t.Fatal(err)
	}
	c.net.SetLinkFilter(nil)

	deadline := time.Now().Add(10 * time.Second)
	for k := 0; ; k++ {
		c.mu.Lock()
		ordered := false
		for _, req := range c.delivered[1] {
			ordered = ordered || req == "lost on the way"
		}
		c.mu.Unlock()
		if ordered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request lost to the leader never ordered (%d other requests were)", k)
		}
		if err := c.replicas[2].Submit([]byte(fmt.Sprintf("busy-%d", k))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.checkPrefixAgreement(all(n))
}

// dropLarge drops every message on one link above a size: in these tests
// only a pre-prepare carrying a large request is that big.
type dropLarge struct {
	from, to flcrypto.NodeID
	over     int
}

func (d dropLarge) FaultFor(from, to flcrypto.NodeID, size int) transport.Fault {
	return transport.Fault{Drop: from == d.from && to == d.to && size > d.over}
}

// TestPBFTMissedPrePrepareFetched: a replica loses the pre-prepare of the
// newest sequence but receives its 2f+1 commits. No later sequence commits
// to reveal the gap, so the commit quorum alone must tell the replica it is
// behind and start the certificate fetch. Otherwise the replica never
// executes the request: its leader timer only starts view changes that
// nobody joins.
func TestPBFTMissedPrePrepareFetched(t *testing.T) {
	const n = 4
	c := newTestCluster(t, n, nil)
	if err := c.replicas[2].Submit([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(all(n), 1, 5*time.Second)

	const size = 4096
	c.net.SetFaultInjector(dropLarge{from: 0, to: 3, over: size})
	if err := c.replicas[1].Submit(bytes.Repeat([]byte("x"), size)); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered([]int{0, 1, 2}, 2, 5*time.Second)
	if c.net.FaultDrops() == 0 {
		t.Fatal("the pre-prepare to replica 3 was not dropped")
	}
	c.net.SetFaultInjector(nil)
	c.waitDelivered(all(n), 2, 10*time.Second)
	c.checkPrefixAgreement(all(n))
}

func TestPBFTLaggingReplicaCatchesUp(t *testing.T) {
	const n = 4
	c := newTestCluster(t, n, nil)
	// Isolate replica 3 (it can talk to no one), commit traffic, then heal.
	c.net.SetLinkFilter(func(from, to flcrypto.NodeID) bool {
		return from == 3 || to == 3
	})
	for k := 0; k < 8; k++ {
		if err := c.replicas[0].Submit([]byte(fmt.Sprintf("iso-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDelivered([]int{0, 1, 2}, 8, 10*time.Second)
	c.net.SetLinkFilter(nil)
	// New traffic makes replica 3 notice it is behind and fetch.
	if err := c.replicas[0].Submit([]byte("post-heal")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(all(n), 9, 20*time.Second)
	c.checkPrefixAgreement(all(n))
}

func TestPBFTBatching(t *testing.T) {
	c := newTestCluster(t, 4, func(cfg *Config) { cfg.BatchSize = 100 })
	const k = 300
	for i := 0; i < k; i++ {
		if err := c.replicas[0].Submit([]byte(fmt.Sprintf("b-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDelivered(all(4), k, 15*time.Second)
	c.checkPrefixAgreement(all(4))
	// Batching must actually batch: far fewer batches than requests.
	if batches := c.replicas[0].Metrics().BatchesDelivered.Load(); batches >= k {
		t.Fatalf("no batching: %d batches for %d requests", batches, k)
	}
}

func TestPBFTMetricsCounters(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	if err := c.replicas[0].Submit([]byte("counted")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(all(4), 1, 5*time.Second)
	m := c.replicas[1].Metrics()
	if m.RequestsDelivered.Load() != 1 {
		t.Fatalf("RequestsDelivered = %d", m.RequestsDelivered.Load())
	}
	if m.SignOps.Load() == 0 || m.VerifyOps.Load() == 0 {
		t.Fatal("signature counters not incremented")
	}
}

func TestPBFTLogGCBoundsMemory(t *testing.T) {
	// The executed-entry log is the checkpoint mechanism's stand-in: after
	// KeepWindow executed sequences, older entries must be discarded, so a
	// long-running replica's memory stays bounded.
	c := newTestCluster(t, 4, func(cfg *Config) {
		cfg.KeepWindow = 16
		cfg.BatchSize = 1
	})
	// Submit in chunks, waiting for the whole cluster between them: a
	// replica can never fall further behind than one chunk, which keeps it
	// inside every peer's KeepWindow (lag beyond the window is
	// unrecoverable by design — see Config.KeepWindow).
	const total = 120
	const chunk = 12
	for base := 0; base < total; base += chunk {
		for i := base; i < base+chunk; i++ {
			if err := c.replicas[0].Submit([]byte(fmt.Sprintf("req-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		c.waitDelivered(all(4), base+chunk, 60*time.Second)
	}
	for i, r := range c.replicas {
		size := r.Metrics().EntriesRetained.Load()
		// Entries in flight plus the keep window; generous slack for the
		// proposal window.
		if size > 16+uint64(r.cfg.Window)+8 {
			t.Fatalf("replica %d retains %d entries after GC (keep 16, window %d)", i, size, r.cfg.Window)
		}
	}
	c.checkPrefixAgreement(all(4))
}
