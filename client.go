package fireledger

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clientapi"
	"repro/internal/types"
)

// Client is the in-process Session implementation: it attaches directly to
// a *Node in the same process, assigns client-local sequence numbers, routes
// writes through the node's hash-affinity worker choice (§6.2), and resolves each
// write with its commit receipt when the transaction appears in a definite
// block of the merged, globally-ordered stream — i.e., when the write is
// final under BBFC(f+1), not merely tentative.
//
// A Client tracks only its own transactions; many sessions (with distinct
// ids) may share a node. Wait-style methods respect context cancellation.
type Client struct {
	node      *Node
	id        uint64
	cancelSub func()

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*inflight // seq → resolution
	closed  bool
}

// inflight pairs a Pending with its resolver.
type inflight struct {
	p       *Pending
	resolve func(Receipt, error)
}

// NewClient attaches a session with the given identity to a node. The
// identity is claimed exclusively — a second session (in-process or remote)
// with the same id is refused until this one closes — and must not be the
// reserved system identity used for conviction transactions.
func NewClient(node *Node, clientID uint64) (*Client, error) {
	if err := node.RegisterClient(clientID); err != nil {
		return nil, fmt.Errorf("fireledger: %w", err)
	}
	// The sequence base is clock-seeded so two sessions of the same client
	// identity (a Close/NewClient cycle with writes still in flight) can
	// never mint the same (client, seq) transaction identity.
	c := &Client{node: node, id: clientID, seq: uint64(time.Now().UnixNano()), pending: make(map[uint64]*inflight)}
	c.cancelSub = node.SubscribeDeliver(c.onDeliver)
	return c, nil
}

// onDeliver resolves this session's writes out of the merged definite
// stream. It runs on the node's delivery path and must not block.
func (c *Client) onDeliver(w uint32, blk types.Block) {
	var receipt Receipt // lazily built: most blocks carry none of our txs
	for i := range blk.Body.Txs {
		tx := &blk.Body.Txs[i]
		if tx.Client != c.id {
			continue
		}
		c.mu.Lock()
		e := c.pending[tx.Seq]
		delete(c.pending, tx.Seq)
		c.mu.Unlock()
		if e == nil {
			continue
		}
		if receipt.Round == 0 {
			receipt = Receipt{Worker: w, Round: blk.Signed.Header.Round, BlockHash: blk.Hash()}
		}
		e.resolve(receipt, nil)
	}
}

// Submit sends payload as this session's next transaction and returns its
// Pending handle, acked immediately (in-process acceptance is synchronous).
func (c *Client) Submit(payload []byte) (*Pending, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("fireledger: session closed")
	}
	c.seq++
	tx := Transaction{Client: c.id, Seq: c.seq, Payload: payload}
	p, ack, resolve := clientapi.NewPending(tx)
	c.pending[tx.Seq] = &inflight{p: p, resolve: resolve}
	c.mu.Unlock()
	if err := c.node.Submit(tx); err != nil {
		c.mu.Lock()
		delete(c.pending, tx.Seq)
		c.mu.Unlock()
		return nil, err
	}
	ack()
	return p, nil
}

// SubmitWait is Submit followed by Pending.Wait: it blocks until the write
// is final and returns its commit receipt.
func (c *Client) SubmitWait(ctx context.Context, payload []byte) (Receipt, error) {
	p, err := c.Submit(payload)
	if err != nil {
		return Receipt{}, err
	}
	return p.Wait(ctx)
}

// Blocks streams the node's merged definite block sequence from cursor:
// history replayed from the node's log (or in-memory chain), then the live
// delivery tail, every block exactly once — every matching block, when
// filter options narrow the stream. Each stream runs on its own fan-out hub
// (clientapi.Blocks), so a slow reader is parked and caught up exactly like
// a remote one, never stalling delivery. Multiple concurrent streams per
// in-process session are allowed; each ends with its ctx.
func (c *Client) Blocks(ctx context.Context, cursor Cursor, opts ...StreamOption) (<-chan BlockEvent, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("fireledger: session closed")
	}
	c.mu.Unlock()
	return clientapi.Blocks(ctx, c.node, cursor, clientapi.BuildFilter(opts...)), nil
}

// Get reads key from the node's ledger state once the applied frontier
// covers at; see Session.Get.
func (c *Client) Get(ctx context.Context, key string, at ReadToken) ([]byte, bool, error) {
	return c.node.StateGet(ctx, key, at.Worker, at.Round)
}

// Scan returns entries with begin <= key < end in ascending key order,
// anchored at at; see Session.Scan. The in-process path has no per-reply
// cap: max <= 0 returns the full range.
func (c *Client) Scan(ctx context.Context, begin, end string, max int, at ReadToken) ([]Entry, error) {
	return c.node.StateScan(ctx, begin, end, max, at.Worker, at.Round)
}

// WatchKey streams updates to key, anchored at at; see Session.WatchKey.
// The watch ends when ctx does.
func (c *Client) WatchKey(ctx context.Context, key string, at ReadToken) (<-chan KeyUpdate, error) {
	ch, _, err := c.node.StateWatch(ctx, key, at.Worker, at.Round)
	return ch, err
}

// Info reports the serving node's identity and delivery totals.
func (c *Client) Info(context.Context) (Info, error) {
	return Info{
		Node:            int64(c.node.ID()),
		N:               c.node.N(),
		Workers:         c.node.Workers(),
		DeliveredBlocks: c.node.DeliveredBlocks(),
		DeliveredTxs:    c.node.DeliveredTxs(),
		PoolPending:     c.node.PoolPending(),
	}, nil
}

// Close detaches the session and releases its client identity (the id may
// be re-registered afterwards). Unresolved Pendings fail; Blocks streams
// end via their contexts.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pend := c.pending
	c.pending = make(map[uint64]*inflight)
	c.mu.Unlock()
	c.cancelSub()
	c.node.UnregisterClient(c.id)
	for _, e := range pend {
		e.resolve(Receipt{}, errors.New("fireledger: session closed"))
	}
	return nil
}

// InFlight reports how many of this session's writes are not yet final.
func (c *Client) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
