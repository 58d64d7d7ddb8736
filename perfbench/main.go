// Command perfbench is the repository's benchmark: one client-to-receipt
// measurement of a 4-node FLO cluster over loopback TCP.
//
// It boots four nodes inside this process, linked by real
// transport.NewTCPEndpoint connections, serves the client API on node 0,
// and drives one workload through fireledger.Dial sessions. Everything is
// measured from outside the program: public constructors, flo.Config
// callbacks, public stats accessors, and timed calls into each layer's
// public functions. No inter-node delay is injected, so latency is
// processor plus kernel time.
//
//	perfbench --workload ledger-saturate --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, each the median over
// the least contended two thirds of untraced sub-runs of about two seconds
// on fresh clusters; with --trace 1 it makes as many untraced and then as
// many traced sub-runs and reports the per-layer metrics, the
// critical-path decomposition and the tracing overhead. The
// last line of standard output is the JSON result; every run also writes
// its full result (and, traced, its spans) under .bench_build/perfbench.
// The command fails if any output check fails. perfbench/README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// A run of --seconds is split into sub-runs whose windows last about
// subWindow each, every one on a freshly booted cluster; extraBoots more
// boots only time the set-up (the first of them from process start).
const (
	subWindow  = 2 * time.Second
	extraBoots = 2
)

func subRunCount(seconds float64) int {
	return max(3, int(math.Round(seconds/subWindow.Seconds())))
}

// keepCount is how many of n planned sub-runs the reported medians are
// taken over: the least contended two thirds. On a small shared virtual
// machine, hypervisor steal comes in episodes of tens of seconds that take
// up to half the CPU and double the latencies of every sub-run they touch;
// ranking sub-runs by the contention measured in their own windows keeps
// the figures about the program. Every sub-run still runs the output
// checks.
func keepCount(n int) int { return max(1, (2*n+2)/3) }

// maxContention is the contention above which a sub-run counts as
// disturbed. While fewer than keepCount sub-runs are undisturbed, an
// untraced run measures more sub-runs, for at most half of --seconds past
// the planned ones, so a steal episode can pass.
const maxContention = 0.05

const watchdog = 160 * time.Second

// outDir holds build output, data directories, results and spans.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ledger-saturate, ledger-open or kv-durable")
	seed := flag.Int64("seed", 1, "seed for payloads and keys")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	// A run of 24 s takes about 40 s (traced, about 90 s); one still going
	// after watchdog is hung. Print every goroutine's stack and fail rather than outlive the
	// caller's time limit.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: still running after %v; goroutines:\n", watchdog)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	wl, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("make output dir: %v", err)
	}
	fp := hostFingerprint(wl.name, *seed, ".")
	printJSON("host", fp)

	var m *measurement
	if *trace == 0 {
		m = endToEnd(wl, *seed, *seconds)
	} else {
		m = traced(wl, *seed, *seconds)
	}
	res := m.res
	// CPU time other processes and guests took during the measured windows:
	// the first thing to look at when a run reads slow.
	load := m.contention()
	fmt.Printf("host contention_frac %.4f (per sub-run %.3f; medians over the %d least contended)\n",
		load.max(), load, keepCount(subRunCount(*seconds)))
	for _, e := range m.errs {
		fmt.Printf("check failed: %s\n", e)
	}
	report(res.Metrics, m.subs, m.pooled, "metric")
	report(m.extra, m.subs, m.pooled, "workload metric")
	file := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, *seed, *trace))
	full := map[string]any{"host": fp, "host_contention_frac": load, "result": res, "workload_metrics": m.extra,
		"sub_runs": m.subs, "errors": m.errs}
	if b, err := json.MarshalIndent(full, "", "  "); err == nil {
		if err := os.WriteFile(file, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", file, err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func printJSON(label string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("%s %s\n", label, b)
}

func report(ms map[string]metric, subs map[string]sample, pooled map[string]int, label string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-36s %14.4f %-8s", label, n, ms[n].Value, ms[n].Unit)
		if len(subs[n]) > 0 {
			fmt.Printf(" sub-runs %.4g", subs[n])
		}
		if k, ok := pooled[n]; ok {
			fmt.Printf(" pooled over sub-runs, %d samples", k)
		}
		fmt.Println()
	}
}

// endToEnd times setup over extraBoots boots plus the boot of every
// sub-run, and splits seconds into untraced sub-runs, adding more while a
// steal episode disturbs them (maxContention). Each metric is the median
// over the least contended keepCount sub-runs, so neither a
// sub-run hit by a badly placed GC cycle or a program stall nor one slowed
// by the host moves it. Only the read and stream-lag percentiles are taken
// over the samples of those sub-runs pooled, because one sub-run holds too
// few reads and streamed blocks for ten of them to lie beyond its p99.
// extra holds the metrics only this workload has.
func endToEnd(wl workload, seed int64, seconds float64) *measurement {
	var setups sample
	for i := 0; i < extraBoots; i++ {
		epoch := time.Now()
		if i == 0 {
			epoch = processStart
		}
		r, err := boot(wl, seed, 0, epoch, nil, outDir)
		if err != nil {
			fatalf("boot: %v", err)
		}
		setups = append(setups, r.setupS)
		r.close()
	}
	m := newMeasurement()
	n := subRunCount(seconds)
	want := keepCount(n)
	use := func(r *run, res result, sr *subResult) {
		setups = append(setups, r.setupS)
		sr.ms = r.endToEnd(res)
		sr.reads, sr.lags = r.reads, r.summarize().streamLag
	}
	for sub := 0; sub < n; sub++ {
		m.subRun(wl, seed, sub, seconds/float64(n), false, use)
	}
	deadline := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	for sub := n; m.undisturbed() < want && time.Now().Before(deadline); sub++ {
		fmt.Printf("%d of %d sub-runs undisturbed; measuring another\n", m.undisturbed(), want)
		m.subRun(wl, seed, sub, seconds/float64(n), false, use)
	}
	kept := m.kept(want)
	med := m.medians(kept)
	m.subs["setup_s"] = setups
	m.res.Metrics = map[string]metric{"setup_s": {setups.pct(0.5), "s"}}
	m.extra = map[string]metric{}
	for name, v := range med {
		if bounded[name] {
			m.res.Metrics[name] = v
		} else {
			m.extra[name] = v
		}
	}
	if wl.kv {
		var reads, lags sample
		for _, s := range kept {
			reads = append(reads, s.reads...)
			lags = append(lags, s.lags...)
		}
		m.extra["read_p50_ms"] = metric{reads.pct(0.5), "ms"}
		m.extra["read_p99_ms"] = metric{reads.pct(0.99), "ms"}
		m.extra["stream_lag_p99_ms"] = metric{lags.pct(0.99), "ms"}
		m.pooled = map[string]int{"read_p50_ms": len(reads), "read_p99_ms": len(reads), "stream_lag_p99_ms": len(lags)}
	}
	return m
}

// subResult is what the report needs of one sub-run.
type subResult struct {
	load        float64           // host contention in its window
	ms          map[string]metric // its metrics
	reads, lags sample            // kv-durable: Get latencies and stream lags, ms
	path        pathSums          // traced: its critical path
}

// measurement accumulates the outcome of a run's sub-runs: the checks of
// every sub-run, and each sub-run's metrics with its host contention.
type measurement struct {
	res   result
	extra map[string]metric // end-to-end metrics only this workload has
	errs  []string
	runs  []subResult
	// subs holds, for each reported metric, the values its median was
	// taken over.
	subs map[string]sample
	// pooled names the metrics taken over the kept sub-runs' samples
	// pooled, with the number of samples.
	pooled map[string]int
}

func newMeasurement() *measurement {
	return &measurement{res: result{Correct: true}, errs: []string{}, subs: map[string]sample{}}
}

// contention lists the host contention of every sub-run, in order.
func (m *measurement) contention() sample {
	var s sample
	for _, r := range m.runs {
		s = append(s, r.load)
	}
	return s
}

// undisturbed counts the sub-runs whose contention is at most maxContention.
func (m *measurement) undisturbed() int {
	k := 0
	for _, r := range m.runs {
		if r.load <= maxContention {
			k++
		}
	}
	return k
}

// kept returns the k least contended sub-runs, in the order they ran.
func (m *measurement) kept(k int) []subResult {
	idx := make([]int, len(m.runs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return m.runs[idx[a]].load < m.runs[idx[b]].load })
	idx = idx[:min(k, len(idx))]
	sort.Ints(idx)
	out := make([]subResult, len(idx))
	for i, j := range idx {
		out[i] = m.runs[j]
	}
	return out
}

// medians returns each metric's median over runs and records the values
// behind it in m.subs.
func (m *measurement) medians(runs []subResult) map[string]metric {
	units := map[string]string{}
	for _, r := range runs {
		for name, v := range r.ms {
			m.subs[name] = append(m.subs[name], v.Value)
			units[name] = v.Unit
		}
	}
	out := map[string]metric{}
	for name, unit := range units {
		out[name] = metric{m.subs[name].pct(0.5), unit}
	}
	return out
}

// subRun boots a cluster, drives sub-run sub for seconds, checks it and
// records it with the host contention of its window. use fills in the
// sub-run's metrics after its cluster is torn down, so the offline layer
// timings it may make share the CPU with no running node.
func (m *measurement) subRun(wl workload, seed int64, sub int, seconds float64, traced bool, use func(*run, result, *subResult)) {
	epoch := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(epoch)
	}
	r, err := boot(wl, seed, sub, epoch, tr, outDir)
	if err != nil {
		fatalf("boot: %v", err)
	}
	r.drive(seconds)
	res, errs := r.finish()
	m.res.add(res)
	m.errs = append(m.errs, errs...)
	sr := subResult{load: r.contention()}
	r.close()
	// Return this cluster's ledger to the OS before measuring anything
	// else, so sub-runs never add up in memory.
	debug.FreeOSMemory()
	use(r, res, &sr)
	m.runs = append(m.runs, sr)
}

// bounded names the end-to-end metrics BENCHMARK.json bounds; the others
// exist only on some workloads.
var bounded = map[string]bool{"commit_tps": true, "commit_p50_ms": true, "commit_p99_ms": true, "cpu_s_per_ktx": true, "heap_peak_mb": true}

func (res *result) add(o result) {
	res.Correct = res.Correct && o.Correct
	res.Attempted += o.Attempted
	res.Failed += o.Failed
}

// endToEnd returns one sub-run's end-to-end metrics.
func (r *run) endToEnd(res result) map[string]metric {
	s := r.summarize()
	m := map[string]metric{
		"commit_tps":    {s.tps, "1/s"},
		"commit_p50_ms": {s.lat.pct(0.5), "ms"},
		"commit_p99_ms": {s.lat.pct(0.99), "ms"},
		"cpu_s_per_ktx": {s.cpuPerKtx, "s"},
		"heap_peak_mb":  {r.heapPeak, "MB"},
		"failed_frac":   {ratio(float64(res.Failed), float64(res.Attempted)), "fraction"},
	}
	if r.wl.crashNode >= 0 {
		m["crash_p99_ms"] = metric{s.crashLat.pct(0.99), "ms"}
		m["outage_ms"] = metric{s.outageMs, "ms"}
	}
	fmt.Printf("sub-run samples: commit %d, crash %d, read %d, streamed blocks %d\n", len(s.lat), len(s.crashLat), len(r.reads), len(s.streamLag))
	return m
}

// traced makes untraced sub-runs as the overhead baseline, then as many
// traced ones. Each per-layer metric is the median over the least contended
// traced sub-runs, and the critical path pools their transactions.
func traced(wl workload, seed int64, seconds float64) *measurement {
	n := subRunCount(seconds)
	base := newMeasurement()
	for sub := 0; sub < n; sub++ {
		base.subRun(wl, seed, sub, seconds/float64(n), false, func(r *run, _ result, sr *subResult) {
			sr.ms = map[string]metric{"commit_p50_ms": {r.summarize().lat.pct(0.5), "ms"}}
		})
	}
	m := newMeasurement()
	for sub := 0; sub < n; sub++ {
		m.subRun(wl, seed, sub, seconds/float64(n), true, func(r *run, _ result, sr *subResult) {
			lm, err := r.layerMetrics(seconds/float64(n), outDir)
			if err != nil {
				m.errs = append(m.errs, err.Error())
				m.res.Correct = false
				m.res.Failed++
			}
			lm["commit_p50_ms"] = metric{r.summarize().lat.pct(0.5), "ms"}
			sr.ms = lm
			sr.path = r.criticalPath()
			spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-%d.jsonl", wl.name, seed, sub))
			if err := r.tr.writeSpans(spans, r.allRecs()); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			} else {
				fmt.Printf("spans written to %s\n", spans)
			}
		})
	}
	baseP50 := base.medians(base.kept(keepCount(n)))["commit_p50_ms"].Value
	kept := m.kept(keepCount(n))
	m.res.Metrics = m.medians(kept)
	tracedP50 := m.res.Metrics["commit_p50_ms"].Value
	delete(m.res.Metrics, "commit_p50_ms")
	var path pathSums
	for _, s := range kept {
		path.add(s.path)
	}
	for name, v := range path.metrics() {
		m.res.Metrics[name] = v
	}
	overhead := tracedP50 - baseP50
	m.res.Metrics["trace.overhead_p50_ms"] = metric{overhead, "ms"}
	path.print()
	fmt.Printf("tracing overhead: commit p50 %.3f ms traced vs %.3f ms untraced (%+.3f ms; medians of %d sub-runs each)\n",
		tracedP50, baseP50, overhead, len(kept))
	// The baseline's sub-runs were checked too.
	m.res.add(base.res)
	m.errs = append(base.errs, m.errs...)
	m.runs = append(base.runs, m.runs...)
	return m
}

// contention is the share of the host's CPU time in the window that went
// to anything but this process: hypervisor steal, plus other processes.
// Interrupt time is not counted: the kernel spends it mostly on this
// process's own loopback traffic and disk writes. Process time is counted
// apart from steal because the rusage of this process can include some of
// that interrupt time, which would otherwise hide steal.
func (r *run) contention() float64 {
	b, e := r.before, r.end
	others := max(0, float64(e.procTicks-b.procTicks)-(e.cpuS-b.cpuS)*clockTicks)
	return ratio(float64(e.stealTicks-b.stealTicks)+others, float64(e.cpuTicks-b.cpuTicks))
}

// criticalPath sums the run's critical-path stages over the writes
// commit_p50_ms covers: the window, up to the crash if there is one.
func (r *run) criticalPath() pathSums {
	var window []*txRec
	for _, rec := range r.allRecs() {
		if rec.dueNs >= r.winStart && rec.dueNs < r.winEnd && (r.crashNs == 0 || rec.dueNs < r.crashNs) {
			window = append(window, rec)
		}
	}
	return criticalPath(r.tr, window)
}

// summary is the end-to-end view of one run's measured window.
type summary struct {
	lat, crashLat, streamLag sample
	tps, cpuPerKtx, outageMs float64
	commits                  int
}

func (r *run) allRecs() []*txRec {
	var all []*txRec
	for _, s := range r.sess {
		all = append(all, s.recs...)
	}
	return all
}

func (r *run) summarize() summary {
	var s summary
	firstBlock := map[blockKey]int64{}
	outageAt := int64(0)
	for _, rec := range r.allRecs() {
		if rec.doneNs == 0 || rec.failed {
			continue
		}
		if rec.doneNs >= r.winStart && rec.doneNs < r.winEnd {
			s.commits++
		}
		if rec.dueNs < r.winStart || rec.dueNs >= r.winEnd {
			continue
		}
		l := ms(rec.doneNs - rec.dueNs)
		if r.crashNs != 0 && rec.dueNs >= r.crashNs {
			s.crashLat = append(s.crashLat, l)
			if outageAt == 0 || rec.doneNs < outageAt {
				outageAt = rec.doneNs
			}
		} else {
			s.lat = append(s.lat, l)
		}
		k := blockKey{rec.w, rec.round}
		if t, ok := firstBlock[k]; !ok || rec.doneNs < t {
			firstBlock[k] = rec.doneNs
		}
	}
	if outageAt != 0 {
		s.outageMs = ms(outageAt - r.crashNs)
	}
	secs := float64(r.winEnd-r.winStart) / 1e9
	s.tps = float64(s.commits) / secs
	s.cpuPerKtx = ratio(r.end.cpuS-r.before.cpuS, float64(s.commits)/1000)
	r.mu.Lock()
	for k, first := range firstBlock {
		if at, ok := r.streamAt[k]; ok {
			s.streamLag = append(s.streamLag, ms(at-first))
		}
	}
	r.mu.Unlock()
	return s
}

// finish runs the output checks after the drain and returns the result
// skeleton (correctness and counts) with every failure described.
func (r *run) finish() (result, []string) {
	recs := r.allRecs()
	want := make([]uint64, r.wl.workers)
	for _, rec := range recs {
		if rec.doneNs != 0 && rec.round > want[rec.w] {
			want[rec.w] = rec.round
		}
	}
	if err := waitFrontier(r.c, want, 10*time.Second); err != nil {
		r.fail("live nodes did not reach the last receipt: %v", err)
	}
	r.audit.pull(r.c)
	for _, e := range r.audit.errs {
		r.fail("ledger: %s", e)
	}
	for _, rec := range recs {
		if rec.doneNs == 0 || rec.failed {
			continue
		}
		if err := r.audit.checkReceipt(rec); err != nil {
			r.fail("receipt: %v", err)
		}
	}
	if r.wl.kv {
		for _, o := range r.readObs {
			if err := r.hist.checkRead(o, r.audit.position); err != nil {
				r.fail("read: %v", err)
			}
		}
		r.checkStateAgreement(want)
	}
	if r.wl.workers > 1 {
		// Every worker must have carried load in the window.
		for w := range r.end.workerTxs {
			if r.end.workerTxs[w] == r.before.workerTxs[w] {
				r.fail("worker %d decided no transactions in the window", w)
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res := result{Attempted: len(recs) + r.attempted, Failed: r.failed}
	res.Correct = r.failed == 0
	return res, append([]string(nil), r.errs...)
}

// checkStateAgreement waits until every live replica has applied the last
// receipt's block and compares their state hashes.
func (r *run) checkStateAgreement(want []uint64) {
	deadline := time.Now().Add(10 * time.Second)
	var hashes []string
	for i, n := range r.c.nodes {
		if !r.c.live[i] {
			continue
		}
		rep := n.State()
		for w, round := range want {
			for !rep.Covered(uint32(w), round) && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
		}
		h := rep.State().Hash()
		hashes = append(hashes, fmt.Sprintf("%x", h[:8]))
	}
	for _, h := range hashes[1:] {
		if h != hashes[0] {
			r.fail("state hashes differ across live nodes: %s", strings.Join(hashes, " "))
			return
		}
	}
}

// layerMetrics derives the per-layer metrics of a traced run.
func (r *run) layerMetrics(seconds float64, dir string) (map[string]metric, error) {
	b, e := r.before, r.end
	blocks := float64(e.delivered - b.delivered)
	ktx := float64(r.summarize().commits) / 1000
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var ack, tail, poolWait, late sample
	inWin := func(ns int64) bool { return ns >= r.winStart && ns < r.winEnd }
	recs := r.allRecs()
	for _, rec := range recs {
		if rec.failed || rec.doneNs == 0 || !inWin(rec.dueNs) {
			continue
		}
		if rec.ackNs != 0 {
			ack = append(ack, ms(rec.ackNs-rec.sentNs))
		}
		if blk, ok := r.tr.block(blockKey{rec.w, rec.round}); ok {
			if blk.ev[evE] != 0 {
				tail = append(tail, ms(rec.doneNs-blk.ev[evE]))
			}
			if blk.ev[evA] != 0 && rec.ackNs != 0 {
				poolWait = append(poolWait, ms(blk.ev[evA]-rec.ackNs))
			}
		}
	}
	for _, s := range r.sess {
		late = append(late, s.late...)
	}
	var merge, ab, bc, cd sample
	r.tr.mu.Lock()
	for _, blk := range r.tr.blocks {
		ev := blk.ev
		if !inWin(ev[evE]) || ev[evD] == 0 {
			continue
		}
		merge = append(merge, ms(ev[evE]-ev[evD]))
		if ev[evA] != 0 && ev[evB] != 0 && ev[evC] != 0 {
			ab = append(ab, ms(ev[evB]-ev[evA]))
			bc = append(bc, ms(ev[evC]-ev[evB]))
			cd = append(cd, ms(ev[evD]-ev[evC]))
		}
	}
	var sendUs sample
	var msgs, bytes float64
	for _, s := range r.tr.sends {
		if inWin(s.start) {
			sendUs = append(sendUs, float64(s.dur)/1e3)
			msgs += float64(s.msgs)
			bytes += float64(s.msgs) * float64(s.bytes)
		}
	}
	var applyUs, snapMs, getUs sample
	for _, s := range r.tr.state {
		if !inWin(s.start) {
			continue
		}
		switch s.op {
		case opApply:
			applyUs = append(applyUs, float64(s.dur)/1e3)
		case opSnapshot:
			snapMs = append(snapMs, float64(s.dur)/1e6)
		case opGet:
			getUs = append(getUs, float64(s.dur)/1e3)
		}
	}
	r.tr.mu.Unlock()

	put("clientapi.ack_ms_p50", ack.pct(0.5), "ms")
	put("clientapi.commit_tail_ms_p50", tail.pct(0.5), "ms")
	put("clientapi.fanout_encodes_per_block", ratio(float64(e.fanEncoded-b.fanEncoded), blocks), "count")
	put("clientapi.fanout_bytes_per_block", ratio(float64(e.fanBytes-b.fanBytes), blocks), "B")
	put("flo.pool_wait_ms_p50", poolWait.pct(0.5), "ms")
	put("flo.merge_ms_p50", merge.pct(0.5), "ms")
	put("flo.pool_pending_max", float64(r.pendingMax), "count")
	put("flo.txs_per_block", ratio(float64(e.deliveredTxs-b.deliveredTxs), blocks), "count")
	put("core.gap_ab_ms", ab.mean(), "ms")
	put("core.gap_bc_ms", bc.mean(), "ms")
	put("core.gap_cd_ms", cd.mean(), "ms")
	put("core.blocks_per_s", float64(e.definite-b.definite)/seconds, "1/s")
	put("core.nil_rounds", float64(e.nilRounds-b.nilRounds), "count")
	put("core.recoveries", float64(e.recoveries-b.recoveries), "count")
	put("obbc.fast_frac", ratio(float64(e.obbcFast-b.obbcFast), float64(e.obbcFast-b.obbcFast+e.obbcFallback-b.obbcFallback)), "fraction")
	verifies := float64(e.vHits - b.vHits + e.vMisses - b.vMisses)
	put("flcrypto.verifies_per_block", ratio(verifies, blocks), "count")
	put("flcrypto.cache_hit_frac", ratio(float64(e.vHits-b.vHits), verifies), "fraction")
	put("flcrypto.batch_avg", ratio(float64(e.batchedSigs-b.batchedSigs), float64(e.batches-b.batches)), "count")
	put("flcrypto.bisections", float64(e.bisections-b.bisections), "count")
	put("flcrypto.sign_per_block", ratio(float64(e.signOps-b.signOps), blocks), "count")
	put("transport.msgs_per_block", ratio(msgs, blocks), "count")
	put("transport.bytes_per_block", ratio(bytes, blocks), "B")
	put("transport.send_us_p50", sendUs.pct(0.5), "us")
	put("transport.frames_per_flush", ratio(float64(e.flushed-b.flushed), float64(e.flushBatches-b.flushBatches)), "count")
	put("transport.send_drops", float64(e.sendDrops-b.sendDrops), "count")
	put("runtime.gc_pause_ms", float64(e.gcPauseNs-b.gcPauseNs)/1e6, "ms")
	put("runtime.alloc_mb_per_ktx", ratio(float64(e.allocBytes-b.allocBytes)/(1<<20), ktx), "MB")
	put("loadgen.late_ms_p99", late.pct(0.99), "ms")

	interval := time.Duration(ratio(seconds*1e9*float64(r.wl.workers), float64(e.definite-b.definite)))
	off, err := offlineLayers(r.layerBlocks, interval, r.reg, dir)
	if err != nil {
		return m, fmt.Errorf("offline layers: %w", err)
	}
	for k, v := range off {
		m[k] = v
	}
	// Only kv-durable has a state backend; on the ledger workloads the
	// samples are empty and these read 0.
	put("statemachine.apply_us_per_block", applyUs.mean(), "us")
	put("statemachine.snapshot_ms_max", snapMs.max(), "ms")
	put("statemachine.get_us_p50", getUs.pct(0.5), "us")
	return m, nil
}
