package clientapi

import (
	"context"
	"sync"

	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// Node is the node-side surface the client API drives. *flo.Node implements
// it; tests may substitute a fake.
type Node interface {
	ID() flcrypto.NodeID
	N() int
	Workers() int
	Submit(tx types.Transaction) error
	SubscribeDeliver(fn func(worker uint32, blk types.Block)) (cancel func())
	ReadDefinite(worker uint32, from uint64, max int) ([]types.Block, error)
	RegisterClient(id uint64) error
	UnregisterClient(id uint64)
	DeliveredBlocks() uint64
	DeliveredTxs() uint64
	PoolPending() int
	// State reads (wire protocol 1.2), served from the node's ledger
	// replica once its applied frontier covers the (worker, round) token;
	// statemachine.ErrNoState when the node has no backend configured.
	StateGet(ctx context.Context, key string, worker uint32, round uint64) ([]byte, bool, error)
	StateScan(ctx context.Context, begin, end string, max int, worker uint32, round uint64) ([]statemachine.Entry, error)
	StateWatch(ctx context.Context, key string, worker uint32, round uint64) (<-chan statemachine.KeyUpdate, func(), error)
}

// replayBatch is how many blocks one historical read fetches per worker.
const replayBatch = 64

// StreamOption narrows a block subscription with a server-side filter
// (wire protocol 1.3). Options combine conjunctively: every set condition
// must hold on the same transaction for a block to be delivered.
type StreamOption func(*Filter)

// WithClientFilter delivers only blocks carrying a transaction submitted by
// client — an end-user app streaming its own writes, not the whole ledger.
func WithClientFilter(client uint64) StreamOption {
	return func(f *Filter) { f.HasClient, f.Client = true, client }
}

// WithTxPrefix delivers only blocks carrying a transaction whose payload
// starts with prefix.
func WithTxPrefix(prefix []byte) StreamOption {
	return func(f *Filter) { f.TxPrefix = append([]byte(nil), prefix...) }
}

// BuildFilter folds options into a wire Filter.
func BuildFilter(opts ...StreamOption) Filter {
	var f Filter
	for _, o := range opts {
		o(&f)
	}
	return f
}

// inprocQueueCap bounds an in-process stream's sink queue and its event
// channel. A reader that falls this far behind is parked at the hub and
// served from the shared ring or a replay cohort once it drains, exactly
// like a remote subscriber whose send queue filled.
const inprocQueueCap = 256

// Blocks streams node's merged definite block sequence from cur — every
// block in merged order that matches flt, each exactly once — through a
// private fan-out Hub: the in-process counterpart of a remote SUBSCRIBE.
// The stream, and its hub, end when ctx does. An abnormal end — a cursor
// worker out of range, a read failure, or a cursor below retained history
// (errors.Is ErrCompacted) — arrives as a final BlockEvent{Err} before the
// channel closes.
func Blocks(ctx context.Context, node Node, cur Cursor, flt Filter) <-chan BlockEvent {
	h := NewHub(node, HubConfig{})
	out := make(chan BlockEvent, inprocQueueCap)
	go func() {
		defer close(out)
		defer h.Close()
		h.stream(ctx, cur, flt, out)
	}()
	return out
}

// stream subscribes an in-process sink at h from cur and forwards its
// events to out until ctx ends or the hub ends the subscription.
func (h *Hub) stream(ctx context.Context, cur Cursor, flt Filter, out chan<- BlockEvent) {
	s := &chanSink{wake: make(chan struct{}, 1)}
	sub, err := h.Subscribe(cur, flt, s)
	if err != nil {
		s.End(err)
	} else {
		defer h.Unsubscribe(sub)
	}
	for {
		s.mu.Lock()
		batch, endErr := s.queue, s.err
		s.queue = nil
		s.mu.Unlock()
		for _, ev := range batch {
			select {
			case out <- ev:
			case <-ctx.Done():
				return
			}
		}
		if len(batch) > 0 {
			h.Unpark(sub) // the queue drained: retry what the hub parked
			continue
		}
		if endErr != nil {
			// The terminal error is a contract signal (ErrCompacted means
			// the consumer has a gap), so it waits for the consumer rather
			// than being dropped by a full channel.
			select {
			case out <- BlockEvent{Err: endErr}:
			case <-ctx.Done():
			}
			return
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return
		}
	}
}

// chanSink is the in-process subscriber's delivery surface: a bounded
// queue the hub fills without blocking and one forwarder (Hub.stream)
// drains. It takes the decoded block straight from the hub frame and never
// asks for the wire encoding.
type chanSink struct {
	mu    sync.Mutex
	queue []BlockEvent
	err   error // terminal; set by End
	wake  chan struct{}
}

func (s *chanSink) TrySend(_ *Hub, f *hubFrame) bool {
	s.mu.Lock()
	if len(s.queue) >= inprocQueueCap {
		s.mu.Unlock()
		return false
	}
	s.queue = append(s.queue, BlockEvent{Worker: f.worker, Block: f.blk})
	s.mu.Unlock()
	s.signal()
	return true
}

func (s *chanSink) End(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	s.signal()
}

func (s *chanSink) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}
