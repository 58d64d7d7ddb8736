package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	fireledger "repro"
	"repro/internal/clientapi"
	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

const clusterN = 4

// clusterSpec is what a workload asks of the cluster.
type clusterSpec struct {
	workers int
	// durable runs every node with a data directory, fsynced group-committed
	// logs, checkpoints every snapshotEvery rounds, and a durable state
	// backend.
	durable       bool
	snapshotEvery uint64
	// dataRoot is the directory the nodes' data directories are made in.
	dataRoot string
}

// cluster is a 4-node FLO deployment inside this process: real loopback
// TCP links between the nodes and a client API server on node 0.
type cluster struct {
	nodes    []*fireledger.Node
	eps      []*transport.TCPEndpoint
	backends []fireledger.StateBackend
	srv      *clientapi.Server
	keys     *flcrypto.KeySet
	dataDir  string
	live     []bool
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// bootCluster builds, starts and serves a cluster. With tr set, every node's
// endpoint and state backend are wrapped for timing and the Fig 9 events
// are recorded: A/B on every node (the proposer reports them), C/D on node
// 0, and E from node 0's Deliver.
func bootCluster(spec clusterSpec, tr *tracer) (*cluster, error) {
	addrs, err := freeAddrs(clusterN)
	if err != nil {
		return nil, err
	}
	ks, err := flcrypto.GenerateKeySet(clusterN, flcrypto.Ed25519, flcrypto.NewDeterministicReader("perfbench"))
	if err != nil {
		return nil, fmt.Errorf("generate keys: %w", err)
	}
	c := &cluster{keys: ks, live: make([]bool, clusterN)}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	for i := 0; i < clusterN; i++ {
		ep, err := transport.NewTCPEndpoint(transport.TCPConfig{ID: flcrypto.NodeID(i), Addrs: addrs})
		if err != nil {
			return fail(err)
		}
		c.eps = append(c.eps, ep)
	}
	if spec.durable {
		dir, err := os.MkdirTemp(spec.dataRoot, "cluster-")
		if err != nil {
			return fail(fmt.Errorf("make data dir: %w", err))
		}
		c.dataDir = dir
	}
	for i := 0; i < clusterN; i++ {
		cfg := fireledger.Config{
			Endpoint:  c.eps[i],
			Registry:  ks.Registry,
			Priv:      ks.Privs[i],
			Workers:   spec.workers,
			BatchSize: 100,
		}
		if spec.durable {
			nodeDir := filepath.Join(c.dataDir, fmt.Sprintf("n%d", i))
			backend, err := fireledger.OpenDurableState(filepath.Join(nodeDir, "state"))
			if err != nil {
				return fail(err)
			}
			c.backends = append(c.backends, backend)
			cfg.State = backend
			cfg.DataDir = nodeDir
			cfg.SyncWrites = true
			cfg.GroupCommit = true
			cfg.GroupCommitAdaptive = true
			cfg.SnapshotEvery = spec.snapshotEvery
		}
		if tr != nil {
			node := i
			cfg.Endpoint = &tracedEndpoint{Endpoint: c.eps[i], node: node, t: tr}
			if cfg.State != nil {
				cfg.State = &tracedState{StateBackend: cfg.State, node: node, t: tr}
			}
			cfg.OnEvent = func(w uint32, round uint64, ev fireledger.Event) {
				tr.event(node, w, round, int(ev))
			}
			if node == 0 {
				cfg.Deliver = func(w uint32, blk types.Block) {
					tr.event(0, w, blk.Signed.Header.Round, evE)
				}
			}
		}
		n, err := fireledger.NewNode(cfg)
		if err != nil {
			return fail(fmt.Errorf("node %d: %w", i, err))
		}
		c.nodes = append(c.nodes, n)
	}
	for i, n := range c.nodes {
		n.Start()
		c.live[i] = true
	}
	c.srv = clientapi.NewServer(c.nodes[0], clientapi.ServerOptions{})
	if err := c.srv.Listen("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	return c, nil
}

// stopTimeout bounds how long a node may take to stop. A node whose Stop
// has not returned by then is left behind (it is reported, with every
// goroutine's stack), so one teardown hang cannot stall the benchmark.
const stopTimeout = 10 * time.Second

// stop stops the listed nodes concurrently and returns those whose Stop
// did not return within stopTimeout.
func (c *cluster) stop(ids []int) []int {
	done := make(chan int, len(ids))
	for _, i := range ids {
		go func(i int) {
			c.nodes[i].Stop()
			done <- i
		}(i)
	}
	stopped := map[int]bool{}
	timeout := time.After(stopTimeout)
	for len(stopped) < len(ids) {
		select {
		case i := <-done:
			stopped[i] = true
		case <-timeout:
			var stuck []int
			for _, i := range ids {
				if !stopped[i] {
					stuck = append(stuck, i)
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: node(s) %v did not stop within %v; goroutines:\n", stuck, stopTimeout)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			return stuck
		}
	}
	return nil
}

// crash stops node i and closes its endpoint (fail-stop).
func (c *cluster) crash(i int) error {
	c.live[i] = false
	if stuck := c.stop([]int{i}); len(stuck) > 0 {
		return fmt.Errorf("node %d did not stop within %v", i, stopTimeout)
	}
	return nil
}

// close tears everything down and removes the data directory. It is safe
// on a partially built cluster.
func (c *cluster) close() {
	if c.srv != nil {
		c.srv.Close()
	}
	ids := make([]int, len(c.nodes))
	for i := range ids {
		ids[i] = i
	}
	stuck := map[int]bool{}
	for _, i := range c.stop(ids) {
		stuck[i] = true
	}
	// Endpoints of nodes that were never built are not owned by a node.
	for i := len(c.nodes); i < len(c.eps); i++ {
		c.eps[i].Close()
	}
	for i, b := range c.backends {
		if !stuck[i] {
			b.Close()
		}
	}
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}
