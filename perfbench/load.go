package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	fireledger "repro"
	"repro/internal/flcrypto"
)

// workload is one traffic mix against the 4-node cluster.
type workload struct {
	name     string
	workers  int // ω
	sessions int // client connections to node 0
	// window is the closed loop's in-flight writes per session; rate the
	// open loop's writes per second across all sessions (0 = closed loop).
	window int
	rate   float64
	// crashNode is stopped, endpoint closed, at the window's midpoint
	// (-1: no crash). It never serves clients.
	crashNode int
	// kv: SET commands over kvKeys keys, durable nodes, reads of 3 in 10
	// commits, periodic scans, and a second session streaming Blocks.
	kv            bool
	snapshotEvery uint64
}

const (
	payloadBytes = 512 // σ of the opaque ledger writes
	kvKeys       = 100_000
	kvValueBytes = 480
	readsPer10   = 3 // of every 10 kv commits, this many are read back
	scanEvery    = 250 * time.Millisecond
	scanMax      = 16
	warmup       = time.Second
	drainTimeout = 20 * time.Second
	readTimeout  = 10 * time.Second
)

var workloads = []workload{
	{name: "ledger-saturate", workers: 2, sessions: 2, window: 1000, crashNode: -1},
	// ledger-open is run by hand only; BENCHMARK.json leaves it out (see
	// README.md).
	{name: "ledger-open", workers: 1, sessions: 2, rate: 5000, crashNode: 3},
	{name: "kv-durable", workers: 1, sessions: 1, rate: 1500, crashNode: -1, kv: true, snapshotEvery: 500},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// session is one client connection with its own seeded input stream.
type session struct {
	id   uint64
	s    fireledger.Session
	rng  *rand.Rand
	recs []*txRec // written by the session's generator; read after it ends
	late sample   // generator lateness in the window, ms
}

// run is one boot of the cluster driven by one workload.
type run struct {
	wl    workload
	seed  int64
	sub   int
	epoch time.Time
	c     *cluster
	reg   *flcrypto.Registry // the cluster's keys; outlives close for the offline timings
	tr    *tracer
	sess  []*session
	hist  *keyHistory
	audit *ledgerAudit

	setupS           float64
	winStart, winEnd int64
	crashNs          int64

	mu        sync.Mutex
	reads     sample    // token-anchored Get latency in the window, ms
	readObs   []readObs // reads to verify against the ledger order
	attempted int       // reads and scans (writes are counted from recs)
	failed    int
	errs      []string

	stream      *streamCheck
	streamAt    map[blockKey]int64
	lastCommit  atomic.Pointer[txRec]
	waits       sync.WaitGroup         // one per write awaiting its receipt
	onCommit    func(*session, *txRec) // called as each receipt arrives
	drained     chan struct{}          // closed when awaiting writes must give up
	layerBlocks []fireledger.Block     // traced runs: blocks decided in the window
	heapPeak    float64
	pendingMax  int
	before, end counters
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// boot starts a cluster and times it to the first commit receipt: the
// setup. epoch is when setup began (process start for the first boot); sub
// numbers the sub-run, which draws its own inputs from seed.
func boot(wl workload, seed int64, sub int, epoch time.Time, tr *tracer, dataRoot string) (*run, error) {
	r := &run{wl: wl, seed: seed, sub: sub, epoch: epoch, tr: tr, drained: make(chan struct{}), audit: newLedgerAudit(wl.workers)}
	if wl.kv {
		r.hist = newKeyHistory()
	}
	c, err := bootCluster(clusterSpec{workers: wl.workers, durable: wl.kv, snapshotEvery: wl.snapshotEvery, dataRoot: dataRoot}, tr)
	if err != nil {
		return nil, err
	}
	r.c, r.reg = c, c.keys.Registry
	first, err := r.dial(1, 0)
	if err != nil {
		c.close()
		return nil, err
	}
	rec, err := r.submitWait(first)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("first write: %w", err)
	}
	r.setupS = time.Since(epoch).Seconds()
	// With ω > 1, give every worker its own session: node 0 routes a
	// client's writes by a hash of its id, so probe ids until one lands on
	// a worker no session covers yet.
	used := map[uint32]bool{rec.w: true}
	for id := uint64(2); len(r.sess) < wl.sessions; id++ {
		if id > 64 {
			r.close()
			return nil, fmt.Errorf("no client id routes to a free worker")
		}
		s, err := r.dial(id, len(r.sess))
		if err != nil {
			r.close()
			return nil, err
		}
		if wl.workers == 1 || len(used) == wl.workers {
			continue
		}
		probe, err := r.submitWait(s)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("probe write: %w", err)
		}
		if used[probe.w] {
			r.sess = r.sess[:len(r.sess)-1]
			delete(r.audit.clients, id)
			s.s.Close()
			continue
		}
		used[probe.w] = true
	}
	return r, nil
}

func (r *run) dial(id uint64, idx int) (*session, error) {
	s, err := fireledger.Dial(r.c.srv.Addr(), id)
	if err != nil {
		return nil, err
	}
	ss := &session{id: id, s: s, rng: rand.New(rand.NewPCG(uint64(r.seed), uint64(r.sub<<8|idx)))}
	r.sess = append(r.sess, ss)
	r.audit.clients[id] = true
	return ss, nil
}

// payload returns the session's next write and fills rec's kv fields.
func (r *run) payload(s *session, rec *txRec) []byte {
	rec.key = -1
	if !r.wl.kv {
		b := make([]byte, payloadBytes)
		for i := 0; i < len(b); i += 8 {
			binary.LittleEndian.PutUint64(b[i:], s.rng.Uint64())
		}
		return b
	}
	key := int32(s.rng.IntN(kvKeys))
	val := make([]byte, kvValueBytes)
	for i := range val {
		val[i] = 'a' + byte(s.rng.IntN(26))
	}
	rec.key = key
	r.hist.add(key, val, rec)
	return fireledger.EncodeSet(keyName(key), val)
}

// submit sends one write; on failure the record is marked and p is nil.
func (r *run) submit(s *session, due int64) (*txRec, *fireledger.Pending) {
	rec := &txRec{dueNs: due}
	data := r.payload(s, rec)
	p, err := s.s.Submit(data)
	rec.sentNs = r.now()
	if due == 0 {
		rec.dueNs = rec.sentNs
	}
	s.recs = append(s.recs, rec)
	if err != nil {
		rec.failed = true
		r.fail("submit on session %d: %v", s.id, err)
		return rec, nil
	}
	rec.client, rec.seq = p.Tx.Client, p.Tx.Seq
	return rec, p
}

func (r *run) submitWait(s *session) (*txRec, error) {
	rec, p := r.submit(s, 0)
	if p == nil {
		return nil, fmt.Errorf("submit failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rcpt, err := p.Wait(ctx)
	if err != nil {
		rec.failed = true
		return nil, err
	}
	rec.doneNs = r.now()
	rec.w, rec.round, rec.hash = rcpt.Worker, rcpt.Round, rcpt.BlockHash
	return rec, nil
}

// await stamps rec's ACK (traced runs) and COMMIT receipt, each at the
// moment it arrives, in a goroutine of its own: writes may commit out of
// submission order (a lost proposal's transactions wait out the pool's
// lease while later ones commit), so no write waits on another's receipt.
// release runs once the write has resolved.
func (r *run) await(s *session, rec *txRec, p *fireledger.Pending, release func()) {
	r.waits.Add(1)
	go func() {
		defer r.waits.Done()
		if release != nil {
			defer release()
		}
		if r.tr != nil {
			select {
			case <-p.Acked():
				rec.ackNs = r.now()
			case <-r.drained:
			}
		}
		select {
		case <-p.Done():
		case <-r.drained:
			rec.failed = true
			r.fail("tx %d/%d: no receipt within %v of the window's end", rec.client, rec.seq, drainTimeout)
			return
		}
		now := r.now()
		rcpt, err := p.Wait(context.Background())
		if err != nil {
			rec.failed = true
			r.fail("tx %d/%d: %v", rec.client, rec.seq, err)
			return
		}
		rec.doneNs = now
		rec.w, rec.round, rec.hash = rcpt.Worker, rcpt.Round, rcpt.BlockHash
		if r.onCommit != nil {
			r.onCommit(s, rec)
		}
	}()
}

// drive runs the workload: warmup, then the measured window, then a drain
// until every write has resolved.
func (r *run) drive(seconds float64) {
	r.winStart = r.now() + int64(warmup)
	r.winEnd = r.winStart + int64(seconds*float64(time.Second))
	stop := make(chan struct{})
	var aux sync.WaitGroup // sampler, crash, scans, stream, auditor

	aux.Add(2)
	go func() {
		defer aux.Done()
		r.sample(stop)
	}()
	go func() {
		defer aux.Done()
		time.Sleep(time.Duration(r.winStart - r.now()))
		r.before = readCounters(r.c)
		time.Sleep(time.Duration(r.winEnd - r.now()))
		r.end = readCounters(r.c)
		if r.tr != nil {
			r.layerBlocks = windowBlocks(r.c.nodes[0], layerSample)
		}
	}()
	if r.wl.crashNode >= 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			at := r.winStart + (r.winEnd-r.winStart)/2
			select {
			case <-time.After(time.Duration(at - r.now())):
				r.crashNs = r.now()
				if err := r.c.crash(r.wl.crashNode); err != nil {
					r.fail("crash: %v", err)
				}
			case <-stop:
			}
		}()
	}
	var reads sync.WaitGroup
	streamCtx, endStream := context.WithCancel(context.Background())
	defer endStream()
	auditStop := make(chan struct{})
	if r.wl.kv {
		r.onCommit = r.kvCommitHook(&reads)
		aux.Add(2)
		go func() {
			defer aux.Done()
			r.scanLoop(stop)
		}()
		go func() {
			defer aux.Done()
			r.streamLoop(streamCtx)
		}()
		if r.wl.snapshotEvery > 0 {
			// Checkpoints compact the chains: read each round before the
			// nodes drop it.
			aux.Add(1)
			go func() {
				defer aux.Done()
				t := time.NewTicker(100 * time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						r.audit.pull(r.c)
					case <-auditStop:
						return
					}
				}
			}()
		}
	}

	var gens sync.WaitGroup
	if r.wl.rate > 0 {
		gens.Add(1)
		go func() {
			defer gens.Done()
			r.openLoop()
		}()
	} else {
		for _, s := range r.sess {
			gens.Add(1)
			go func(s *session) {
				defer gens.Done()
				r.closedLoop(s)
			}(s)
		}
	}
	gens.Wait()
	// The generators stop at the window's end; drain what is in flight.
	timer := time.AfterFunc(drainTimeout, func() { close(r.drained) })
	r.waits.Wait()
	reads.Wait()
	close(stop)
	close(auditStop)
	timer.Stop()
	// Let the stream catch up with the last commit before closing it.
	if r.wl.kv {
		r.waitStream(5 * time.Second)
	}
	endStream()
	aux.Wait()
	// Without checkpoints the ledger only grows, so its peak comes at the
	// end; a collection makes the live heap exact there, where sampling
	// alone reads it as of whichever cycle last ran.
	runtime.GC()
	r.noteHeap()
}

// closedLoop keeps window writes in flight on one session until the window
// ends; a slot frees as soon as any of them resolves. Lateness is the time
// from a slot freeing to the next Submit.
func (r *run) closedLoop(s *session) {
	slots := make(chan struct{}, r.wl.window)
	release := func() { <-slots }
	end := time.NewTimer(time.Duration(r.winEnd - r.now()))
	defer end.Stop()
	for {
		select {
		case slots <- struct{}{}:
		case <-end.C:
			return
		}
		free := r.now()
		if free >= r.winEnd {
			return
		}
		rec, p := r.submit(s, 0)
		if free >= r.winStart {
			s.late = append(s.late, ms(rec.dueNs-free))
		}
		if p == nil {
			return // the session is broken; the failure is recorded
		}
		r.await(s, rec, p, release)
	}
}

// openLoop submits on a fixed schedule across the sessions in turn,
// regardless of how many writes are outstanding. Each write is timed from
// when it was due, so a stall is charged to every write it delays.
func (r *run) openLoop() {
	interval := float64(time.Second) / r.wl.rate
	start := r.now()
	for i := 0; ; i++ {
		due := start + int64(float64(i)*interval)
		if due >= r.winEnd {
			return
		}
		if wait := due - r.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		s := r.sess[i%len(r.sess)]
		rec, p := r.submit(s, due)
		if due >= r.winStart {
			s.late = append(s.late, ms(rec.sentNs-due))
		}
		if p != nil {
			r.await(s, rec, p, nil)
		}
	}
}

// sample tracks the peak live heap (as of the latest GC cycle) and node 0's
// pool backlog in the window.
func (r *run) sample(stop <-chan struct{}) {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := r.now()
		if now < r.winStart || now > r.winEnd {
			continue
		}
		r.noteHeap()
		if p := r.c.nodes[0].PoolPending(); p > r.pendingMax {
			r.pendingMax = p
		}
	}
}

// noteHeap raises heapPeak to the live heap as of the latest GC cycle.
func (r *run) noteHeap() {
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	r.heapPeak = max(r.heapPeak, float64(m[0].Value.Uint64())/(1<<20))
}

// kvCommitHook reads back 3 of every 10 committed writes with a Get
// anchored at the write's receipt.
func (r *run) kvCommitHook(reads *sync.WaitGroup) func(*session, *txRec) {
	var n atomic.Uint64
	return func(s *session, rec *txRec) {
		r.lastCommit.Store(rec)
		if n.Add(1)%10 >= readsPer10 {
			return
		}
		reads.Add(1)
		go func() {
			defer reads.Done()
			ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
			defer cancel()
			issued := r.now()
			val, found, err := s.s.Get(ctx, keyName(rec.key), fireledger.ReadToken{Worker: rec.w, Round: rec.round})
			lat := ms(r.now() - issued)
			r.mu.Lock()
			r.attempted++
			r.mu.Unlock()
			if err != nil {
				r.fail("get %s: %v", keyName(rec.key), err)
				return
			}
			r.mu.Lock()
			r.readObs = append(r.readObs, readObs{rec.key, rec, val, found})
			if issued >= r.winStart && issued < r.winEnd {
				r.reads = append(r.reads, lat)
			}
			r.mu.Unlock()
		}()
	}
}

// scanLoop periodically scans from the key of the latest committed write,
// anchored at its receipt: the first entry must be that key with that write
// (or a later one), and every entry a value this benchmark wrote.
func (r *run) scanLoop(stop <-chan struct{}) {
	t := time.NewTicker(scanEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		rec := r.lastCommit.Load()
		if rec == nil {
			continue
		}
		r.mu.Lock()
		r.attempted++
		r.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
		ents, err := r.sess[0].s.Scan(ctx, keyName(rec.key), "", scanMax, fireledger.ReadToken{Worker: rec.w, Round: rec.round})
		cancel()
		if err == nil {
			err = r.checkScan(rec, ents)
		}
		if err != nil {
			r.fail("scan: %v", err)
		}
	}
}

// checkScan verifies what a scan can be checked for at once: order, and
// only values this run wrote. The first entry, the anchoring write's key,
// is queued for checkRead.
func (r *run) checkScan(rec *txRec, ents []fireledger.Entry) error {
	if len(ents) == 0 || ents[0].Key != keyName(rec.key) {
		return fmt.Errorf("scan from %s did not start at it", keyName(rec.key))
	}
	for i, e := range ents {
		if i > 0 && e.Key <= ents[i-1].Key {
			return fmt.Errorf("scan keys out of order: %s after %s", e.Key, ents[i-1].Key)
		}
		var k int32
		if _, err := fmt.Sscanf(e.Key, "k%06d", &k); err != nil {
			return fmt.Errorf("scan returned foreign key %q", e.Key)
		}
		if r.hist.writer(k, e.Value) == nil {
			return fmt.Errorf("scan: %s holds a value this run never wrote", e.Key)
		}
	}
	r.mu.Lock()
	r.readObs = append(r.readObs, readObs{rec.key, rec, ents[0].Value, true})
	r.mu.Unlock()
	return nil
}

// streamLoop follows the merged block stream from the zero cursor on the
// second session, checking for gaps and stamping each block's arrival.
func (r *run) streamLoop(ctx context.Context) {
	r.stream = newStreamCheck(r.wl.workers)
	streamSess, err := fireledger.Dial(r.c.srv.Addr(), 1000)
	if err != nil {
		r.fail("stream dial: %v", err)
		return
	}
	defer streamSess.Close()
	ch, err := streamSess.Blocks(ctx, fireledger.Cursor{})
	if err != nil {
		r.fail("stream open: %v", err)
		return
	}
	broken := false
	for ev := range ch {
		if ev.Err != nil {
			if ctx.Err() == nil {
				r.fail("stream ended: %v", ev.Err)
			}
			continue
		}
		round := ev.Block.Signed.Header.Round
		if !broken {
			if err := r.stream.observe(ev.Worker, round); err != nil {
				r.fail("%v", err)
				broken = true
			}
		}
		if len(ev.Block.Body.Txs) > 0 {
			r.mu.Lock()
			if r.streamAt == nil {
				r.streamAt = make(map[blockKey]int64)
			}
			r.streamAt[blockKey{ev.Worker, round}] = r.now()
			r.mu.Unlock()
		}
	}
}

// waitStream waits until the stream has delivered the block of every
// committed write.
func (r *run) waitStream(timeout time.Duration) {
	want := map[blockKey]bool{}
	for _, s := range r.sess {
		for _, rec := range s.recs {
			if rec.doneNs != 0 {
				want[blockKey{rec.w, rec.round}] = true
			}
		}
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		missing := 0
		for k := range want {
			if _, ok := r.streamAt[k]; !ok {
				missing++
			}
		}
		r.mu.Unlock()
		if missing == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.fail("stream did not deliver every committed block within %v", timeout)
}

// close ends the sessions, tears the cluster down and drops it, so its
// memory can be returned before anything else is measured.
func (r *run) close() {
	for _, s := range r.sess {
		s.s.Close()
	}
	r.c.close()
	r.c = nil
}
