package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	fireledger "repro"
	"repro/internal/flcrypto"
	"repro/internal/store"
	"repro/internal/types"
)

// counters is a snapshot of the public stats accessors of every layer.
// Node-local figures (rounds, merge, fan-out) come from node 0; work every
// node does (signing, verifying, sending) is summed over all four.
type counters struct {
	cpuS                    float64
	gcPauseNs, allocBytes   uint64
	delivered, deliveredTxs uint64
	definite                uint64
	workerTxs               []uint64
	nilRounds, recoveries   uint64
	obbcFast, obbcFallback  uint64
	signOps                 uint64
	vHits, vMisses          uint64
	batches, batchedSigs    uint64
	bisections              uint64
	flushBatches, flushed   uint64
	sendDrops               uint64
	fanEncoded, fanBytes    uint64
	// procTicks, stealTicks and cpuTicks are the host's CPU time in
	// processes, its hypervisor steal and its total CPU time, from
	// /proc/stat (0 where absent).
	procTicks, stealTicks, cpuTicks uint64
}

func readCounters(c *cluster) counters {
	var k counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		k.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.gcPauseNs, k.allocBytes = ms.PauseTotalNs, ms.TotalAlloc
	n0 := c.nodes[0]
	k.delivered, k.deliveredTxs = n0.DeliveredBlocks(), n0.DeliveredTxs()
	for w := 0; w < n0.Workers(); w++ {
		m := n0.Worker(w).Metrics()
		k.definite += m.DefiniteBlocks.Load()
		k.workerTxs = append(k.workerTxs, m.DefiniteTxs.Load())
		k.nilRounds += m.NilRounds.Load()
		k.recoveries += m.Recoveries.Load()
		om := n0.OBBCMetrics(w)
		k.obbcFast += om.FastDecisions.Load()
		k.obbcFallback += om.FallbackDecisions.Load()
	}
	for i, n := range c.nodes {
		for w := 0; w < n.Workers(); w++ {
			k.signOps += n.Worker(w).Metrics().SignOps.Load()
		}
		hits, misses := n.VerifyPool().Stats()
		k.vHits += hits
		k.vMisses += misses
		bs := n.VerifyPool().BatchStats()
		k.batches += bs.Batches
		k.batchedSigs += bs.BatchedSigs
		k.bisections += bs.Bisections
		fs := c.eps[i].FlushStats()
		k.flushBatches += fs.Batches
		k.flushed += fs.Items
		k.sendDrops += c.eps[i].TotalSendDrops()
	}
	fan := c.srv.Fanout()
	k.fanEncoded, k.fanBytes = fan.FramesEncoded, fan.BytesSent
	k.procTicks, k.stealTicks, k.cpuTicks = hostTicks()
	return k
}

// clockTicks is the unit of /proc/stat: USER_HZ, 100 per second on Linux.
const clockTicks = 100

// hostTicks reads the aggregate "cpu" line of /proc/stat: user, nice and
// system (the 1st to 3rd field), steal (the 8th), and the sum of all
// fields.
func hostTicks() (proc, steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		switch i {
		case 0, 1, 2:
			proc += v
		case 7:
			steal += v
		}
	}
	return proc, steal, total
}

// layerSample is how many of the window's blocks the offline layer
// measurements replay.
const layerSample = 200

// windowBlocks returns up to max of the most recent definite blocks of
// worker 0 on node 0. Read at the window's end, they are the input of the
// offline layer measurements.
func windowBlocks(n *fireledger.Node, max int) []fireledger.Block {
	chain := n.Worker(0).Chain()
	def := chain.Definite()
	from := chain.Base() + 1
	if def >= uint64(max) && def-uint64(max)+1 > from {
		from = def - uint64(max) + 1
	}
	blocks, err := n.ReadDefinite(0, from, max)
	if err != nil {
		return nil
	}
	return blocks
}

// fresh copies a block without its encode-once memos, so the codec does the
// full work a block arriving from the wire would need.
func fresh(b fireledger.Block) fireledger.Block {
	txs := make([]types.Transaction, len(b.Body.Txs))
	for i, tx := range b.Body.Txs {
		txs[i] = types.Transaction{Client: tx.Client, Seq: tx.Seq, Payload: append([]byte(nil), tx.Payload...)}
	}
	return fireledger.Block{
		Signed: types.SignedHeader{Header: b.Signed.Header, Sig: append(flcrypto.Signature(nil), b.Signed.Sig...)},
		Body:   types.Body{Txs: txs},
	}
}

// timePasses runs pass `passes` times and returns the median per-item cost
// in microseconds.
func timePasses(passes, items int, pass func()) float64 {
	var per sample
	for i := 0; i < passes; i++ {
		start := time.Now()
		pass()
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/float64(items))
	}
	return per.pct(0.5)
}

// offlineLayers times the codec, signature and store layers on the run's
// own blocks, calling each layer's public functions directly, after the
// run's cluster has stopped. blockInterval is the mean time between the
// blocks the run decided on one worker.
func offlineLayers(blocks []fireledger.Block, blockInterval time.Duration, reg *flcrypto.Registry, dir string) (map[string]metric, error) {
	out := map[string]metric{}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("no definite blocks to measure")
	}
	const passes = 5
	// Copies without memos encode in full every time.
	copies := make([]fireledger.Block, len(blocks))
	var encoded [][]byte
	var size float64
	for i, b := range blocks {
		copies[i] = fresh(b)
		e := types.NewEncoder(0)
		copies[i].Encode(e)
		encoded = append(encoded, e.Bytes())
		size += float64(len(e.Bytes()))
	}
	out["types.block_bytes"] = metric{size / float64(len(blocks)), "B"}
	out["types.encode_us_per_block"] = metric{timePasses(passes, len(blocks), func() {
		for i := range copies {
			e := types.NewEncoder(len(encoded[i]))
			copies[i].Encode(e)
		}
	}), "us"}
	out["types.decode_us_per_block"] = metric{timePasses(passes, len(blocks), func() {
		for _, raw := range encoded {
			d := types.NewDecoder(raw)
			types.DecodeBlock(d)
		}
	}), "us"}

	pubs := make([]flcrypto.PublicKey, len(blocks))
	msgs := make([][]byte, len(blocks))
	sigs := make([]flcrypto.Signature, len(blocks))
	for i, b := range blocks {
		pubs[i] = reg.PublicKey(b.Signed.Header.Proposer)
		msgs[i] = b.Signed.Header.Marshal()
		sigs[i] = b.Signed.Sig
	}
	bad := 0
	out["flcrypto.verify_us_single"] = metric{timePasses(passes, len(blocks), func() {
		for i, b := range blocks {
			if !reg.Verify(b.Signed.Header.Proposer, msgs[i], sigs[i]) {
				bad++
			}
		}
	}), "us"}
	const batch = 64
	out["flcrypto.verify_us_batch"] = metric{timePasses(passes, len(blocks), func() {
		for lo := 0; lo < len(blocks); lo += batch {
			hi := min(lo+batch, len(blocks))
			for _, ok := range flcrypto.VerifyBatch(pubs[lo:hi], msgs[lo:hi], sigs[lo:hi]) {
				if !ok {
					bad++
				}
			}
		}
	}), "us"}
	if bad > 0 {
		return nil, fmt.Errorf("%d decided headers failed signature verification", bad)
	}

	// Store: the blocks, renumbered from round 1 (a fresh log starts at
	// genesis), appended to a log with kv-durable's options at the rate the
	// run decided them. Append time runs from AppendAsync to durability.
	path := filepath.Join(dir, "layer.log")
	lg, _, err := store.Open(path, store.Options{Sync: true, GroupCommit: true, GroupCommitAdaptive: true})
	if err != nil {
		return nil, fmt.Errorf("open block log: %w", err)
	}
	defer os.Remove(path)
	type pending struct {
		start time.Time
		wait  func() error
	}
	done := make(chan pending, len(copies))
	var appendUs sample
	var waitErr error
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for p := range done {
			if err := p.wait(); err != nil && waitErr == nil {
				waitErr = err
			}
			appendUs = append(appendUs, float64(time.Since(p.start).Nanoseconds())/1e3)
		}
	}()
	next := time.Now()
	for i, b := range copies {
		b.Signed.Header.Round = uint64(i + 1)
		time.Sleep(time.Until(next))
		next = next.Add(blockInterval)
		start := time.Now()
		wait, err := lg.AppendAsync(b)
		if err != nil {
			waitErr = fmt.Errorf("append: %w", err)
			break
		}
		done <- pending{start, wait}
	}
	close(done)
	<-collected
	if err := lg.Close(); err != nil && waitErr == nil {
		waitErr = err
	}
	if waitErr != nil {
		return nil, fmt.Errorf("block log: %w", waitErr)
	}
	out["store.append_us_per_block"] = metric{appendUs.mean(), "us"}
	out["store.frames_per_fsync"] = metric{lg.GroupCommitStats().Mean(), "count"}
	return out, nil
}
