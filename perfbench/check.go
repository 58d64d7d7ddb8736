package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	fireledger "repro"
	"repro/internal/flcrypto"
)

// txRec is one write as the load generator saw it. Timestamps are ns since
// the run's epoch; 0 means the point was never observed.
type txRec struct {
	client, seq uint64
	dueNs       int64 // when the schedule wanted it sent (= sentNs in a closed loop)
	sentNs      int64 // Submit returned (the frame is on the wire)
	ackNs       int64 // ACK observed (traced runs only)
	doneNs      int64 // COMMIT receipt observed
	failed      bool  // Submit failed, or the write never resolved with a receipt
	w           uint32
	round       uint64
	hash        flcrypto.Hash
	key         int32 // kv writes: the key index (-1 for opaque ledger writes)
}

type txID struct{ client, seq uint64 }

// txLoc places a transaction in the ledger: its block and its index there.
type txLoc struct {
	blk blockKey
	idx int
}

// ledgerAudit reads every live node's definite chains through the public
// ReadDefinite and checks them against node 0's: equal block hashes at
// every round both hold, and each of the benchmark's transactions present
// exactly once. Node 0's copy indexes where each transaction landed.
type ledgerAudit struct {
	workers int
	clients map[uint64]bool

	next   [clusterN][]uint64         // per node, per worker: next round to read
	hashes []map[uint64]flcrypto.Hash // per worker: node 0's block hash by round
	where  map[txID]txLoc             // node 0's placement of each benchmark tx
	errs   []string
}

func newLedgerAudit(workers int) *ledgerAudit {
	a := &ledgerAudit{workers: workers, clients: make(map[uint64]bool), where: make(map[txID]txLoc)}
	for i := range a.next {
		a.next[i] = make([]uint64, workers)
		for w := range a.next[i] {
			a.next[i][w] = 1
		}
	}
	for w := 0; w < workers; w++ {
		a.hashes = append(a.hashes, make(map[uint64]flcrypto.Hash))
	}
	return a
}

func (a *ledgerAudit) fail(format string, args ...any) {
	if len(a.errs) < 20 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// pull reads every live node's newly definite blocks. Node 0 goes first;
// the other nodes are read only up to node 0's frontier, so each of their
// blocks is compared as it is read. Call it often enough that no node
// compacts a round away before it is read.
func (a *ledgerAudit) pull(c *cluster) {
	var frontier []uint64
	for i, n := range c.nodes {
		if !c.live[i] {
			continue
		}
		for w := 0; w < a.workers; w++ {
			upto := n.Worker(w).Chain().Definite()
			if i == 0 {
				frontier = append(frontier, upto)
			} else if upto > frontier[w] {
				upto = frontier[w]
			}
			for a.next[i][w] <= upto {
				from := a.next[i][w]
				blocks, err := n.ReadDefinite(uint32(w), from, int(upto-from+1))
				if err != nil || len(blocks) == 0 {
					a.fail("node %d worker %d: read round %d: %v", i, w, from, err)
					a.next[i][w] = upto + 1
					break
				}
				for _, blk := range blocks {
					a.observe(i, uint32(w), blk)
				}
				a.next[i][w] = from + uint64(len(blocks))
			}
		}
	}
}

func (a *ledgerAudit) observe(node int, w uint32, blk fireledger.Block) {
	round := blk.Signed.Header.Round
	h := blk.Hash()
	if node != 0 {
		if want, ok := a.hashes[w][round]; ok && want != h {
			a.fail("node %d worker %d round %d: block %x, node 0 has %x", node, w, round, h[:6], want[:6])
		}
		return
	}
	a.hashes[w][round] = h
	for i, tx := range blk.Body.Txs {
		if !a.clients[tx.Client] {
			continue
		}
		id := txID{tx.Client, tx.Seq}
		if prev, dup := a.where[id]; dup {
			a.fail("tx %d/%d decided twice: worker %d round %d and worker %d round %d",
				tx.Client, tx.Seq, prev.blk.w, prev.blk.round, w, round)
			continue
		}
		a.where[id] = txLoc{blockKey{w, round}, i}
	}
}

// checkReceipt verifies one committed write: it is in the ledger, in the
// block its receipt names, and the receipt's hash is that block's hash.
func (a *ledgerAudit) checkReceipt(r *txRec) error {
	loc, ok := a.where[txID{r.client, r.seq}]
	if !ok {
		return fmt.Errorf("tx %d/%d: receipt names worker %d round %d, but no definite block holds it", r.client, r.seq, r.w, r.round)
	}
	if loc.blk != (blockKey{r.w, r.round}) {
		return fmt.Errorf("tx %d/%d: receipt names worker %d round %d, block is worker %d round %d", r.client, r.seq, r.w, r.round, loc.blk.w, loc.blk.round)
	}
	if h := a.hashes[r.w][r.round]; h != r.hash {
		return fmt.Errorf("tx %d/%d: receipt hash %x, block hash %x", r.client, r.seq, r.hash[:6], h[:6])
	}
	return nil
}

// position orders a transaction in the merged ledger: blocks by (round,
// worker), then transactions by their index in the block.
func (a *ledgerAudit) position(r *txRec) (uint64, bool) {
	loc, ok := a.where[txID{r.client, r.seq}]
	if !ok {
		return 0, false
	}
	return (loc.blk.round*uint64(a.workers)+uint64(loc.blk.w))<<20 | uint64(loc.idx), true
}

// waitFrontier waits until every live node's definite frontier of each
// worker reaches want[w], so a final pull covers every receipt.
func waitFrontier(c *cluster, want []uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		behind := ""
		for i, n := range c.nodes {
			for w, r := range want {
				if c.live[i] && n.Worker(w).Chain().Definite() < r {
					behind = fmt.Sprintf("node %d worker %d below round %d", i, w, r)
				}
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New(behind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamCheck verifies that a Blocks stream from the zero cursor delivers
// the merged positions in order with none skipped or repeated.
type streamCheck struct {
	workers int
	next    fireledger.Cursor
	blocks  int
}

func newStreamCheck(workers int) *streamCheck {
	return &streamCheck{workers: workers, next: fireledger.Cursor{Worker: 0, Round: 1}}
}

func (s *streamCheck) observe(w uint32, round uint64) error {
	got := fireledger.Cursor{Worker: w, Round: round}
	if got != s.next {
		return fmt.Errorf("stream position %d: got worker %d round %d, want worker %d round %d",
			s.blocks, w, round, s.next.Worker, s.next.Round)
	}
	s.blocks++
	s.next = got.Next(s.workers)
	return nil
}

// keyHistory records every value written to each key and the write that
// wrote it; values are random, so a value identifies its write.
type keyHistory struct {
	mu     sync.Mutex
	writes map[int32][]keyWrite
}

type keyWrite struct {
	hash uint64
	rec  *txRec
}

func newKeyHistory() *keyHistory { return &keyHistory{writes: make(map[int32][]keyWrite)} }

func valueHash(v []byte) uint64 {
	h := fnv.New64a()
	h.Write(v)
	return h.Sum64()
}

func (k *keyHistory) add(key int32, value []byte, rec *txRec) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.writes[key] = append(k.writes[key], keyWrite{valueHash(value), rec})
}

// writer returns the write that stored value under key, or nil if this
// run never wrote it.
func (k *keyHistory) writer(key int32, value []byte) *txRec {
	h := valueHash(value)
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, w := range k.writes[key] {
		if w.hash == h {
			return w.rec
		}
	}
	return nil
}

// readObs is a read to verify once the ledger order is known: a Get, or
// the first entry of a Scan, anchored at anchor's receipt.
type readObs struct {
	key    int32
	anchor *txRec
	value  []byte
	found  bool
}

// checkRead verifies a read anchored at a write's receipt: it must return
// that write's value or the value of a write to the same key that the
// ledger orders after it. pos gives a committed write's ledger position.
func (k *keyHistory) checkRead(o readObs, pos func(*txRec) (uint64, bool)) error {
	if !o.found {
		return fmt.Errorf("%s: not found after its write committed", keyName(o.key))
	}
	w := k.writer(o.key, o.value)
	if w == nil {
		return fmt.Errorf("%s: returned a value this run never wrote", keyName(o.key))
	}
	got, ok := pos(w)
	if !ok {
		return fmt.Errorf("%s: returned the value of tx %d/%d, which no definite block holds", keyName(o.key), w.client, w.seq)
	}
	anchor, ok := pos(o.anchor)
	if !ok {
		return fmt.Errorf("%s: anchoring tx %d/%d is in no definite block", keyName(o.key), o.anchor.client, o.anchor.seq)
	}
	if got < anchor {
		return fmt.Errorf("%s: returned the value of tx %d/%d, which the ledger orders before the anchoring write", keyName(o.key), w.client, w.seq)
	}
	return nil
}

func keyName(k int32) string { return fmt.Sprintf("k%06d", k) }
