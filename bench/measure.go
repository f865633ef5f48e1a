package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// numWindows is how many equal windows a measured run is cut into. Each
// end-to-end metric is the median over the windows, so two windows hit by a
// noisy neighbour do not move the result.
const numWindows = 5

// A run boots and warms the server at least minSetups times and goes on, up
// to maxSetups, while all set-ups together took less than setupBudget;
// setup_s is the median. A set-up of a tenth of a second is mostly process
// start and scatters more than one of three seconds, so it gets more repeats.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// minOps is the fewest timed operations a run may hold: p99 needs ten
// samples beyond it.
const minOps = 1000

type runOpts struct {
	wl      *workload
	seed    int64
	seconds float64
	sc      scale
	qservd  string
	dir     string // scratch directory for dataset files and server logs
	clients int
}

// percentile returns the q-quantile of sorted by nearest rank. ok is false
// when fewer than ten samples lie beyond it, the least a percentile needs to
// be more than one outlier's latency.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], float64(n-1-rank) >= 10 || q <= 0.5
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max-min)/median, the window-to-window scatter reported beside
// every end-to-end metric.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

// boot starts qservd on the workload's file and prepares, counts and
// verifies its warm statements: the time a deployment waits before the
// first request can be served warm.
func boot(o runOpts, w *world, tag string) (*server, map[string]string, time.Duration, error) {
	data := w.data.snap
	if o.wl.textBoot {
		data = w.data.text
	}
	t0 := time.Now()
	srv, err := startServer(o.qservd, data, filepath.Join(o.dir, "qservd-"+tag+".log"))
	if err != nil {
		return nil, nil, 0, err
	}
	handles, err := warmStatements(o.wl, w, srv.postJSON)
	if err != nil {
		srv.stop()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, handles, time.Since(t0), nil
}

type prepareResp struct {
	Handle string `json:"handle"`
}

// postFunc sends one set-up request as JSON and decodes the 200 response.
type postFunc func(path string, req, v interface{}) error

// warmStatements prepares, counts and verifies the workload's warm
// statements and returns their handles for a workload that sends handles.
func warmStatements(wl *workload, w *world, post postFunc) (map[string]string, error) {
	handles := map[string]string{}
	countIs := func(st *stmt, want int64) error {
		var cr pointResp
		if err := post("/v1/count", map[string]string{"query": st.text}, &cr); err != nil {
			return err
		}
		if cr.Count != strconv.FormatInt(want, 10) {
			return fmt.Errorf("%s counts %q, want %d", st.key, cr.Count, want)
		}
		return nil
	}
	for _, st := range wl.warm {
		var pr prepareResp
		if err := post("/v1/prepare", map[string]string{"query": st.text}, &pr); err != nil {
			return nil, err
		}
		if wl.byHandle {
			handles[st.key] = pr.Handle
		}
		if err := countIs(st, w.expect(st.sh, st.p).count); err != nil {
			return nil, err
		}
	}
	if wl.mutates {
		// The first mutation of a mapped relation copies it to the heap and
		// the first refresh rebuilds the spines with their refreshers. Both
		// happen once per process, so they belong to set-up.
		probe := []int64{int64(w.data.sc.dom(pairS)) + 1000, 1}
		want := w.expect(shapeFC2, pairS).count
		for _, kind := range []string{"insert", "delete"} {
			var mr pointResp
			req := map[string]interface{}{"pred": pairS.edge, "op": kind, "tuple": probe}
			if err := post("/v1/mutate", req, &mr); err != nil {
				return nil, err
			}
			present := int64(0)
			if kind == "insert" && w.pairData(pairS).label[probe[1]] {
				present = 1
			}
			if err := countIs(stFC2s, want+present); err != nil {
				return nil, err
			}
		}
	}
	return handles, nil
}

// sample is what the harness reads from outside the server at a window
// boundary.
type sample struct {
	at    int64 // ns since the run's t0
	cpu   cpuTicks
	stats serve.Stats
	mem   memStats
	gen   syscall.Rusage // the generator's own CPU
}

// traffic is one measured run's raw material.
type traffic struct {
	recs    []rec
	samples []sample // one per window boundary: windows+1
	errs    []error
	windows int
}

// drive runs the closed loop: one goroutine and one connection per client,
// each sending its next request when the previous response has been read
// and checked. After warm it samples the server at every window boundary.
func drive(o runOpts, w *world, srv *server, handles map[string]string, warm, window time.Duration, windows int, deep bool) (*traffic, []*client, error) {
	t0 := time.Now()
	end := warm + time.Duration(windows)*window
	clients := make([]*client, o.clients)
	var wg sync.WaitGroup
	for i := range clients {
		tr := newHTTPTransport(srv.base)
		c := newClient(i, w, o.wl, tr, o.clients, t0)
		c.handles = handles
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.close()
			for time.Since(t0) < end && c.firstErr == nil {
				c.recs = append(c.recs, c.do(c.next()))
			}
		}()
	}
	tf := &traffic{windows: windows}
	var sampleErr error
	for i := 0; i <= windows; i++ {
		time.Sleep(time.Until(t0.Add(warm + time.Duration(i)*window)))
		s := sample{at: time.Since(t0).Nanoseconds()}
		if s.cpu, sampleErr = procCPU(srv.pid()); sampleErr != nil {
			break
		}
		if deep {
			if s.stats, sampleErr = srv.stats(); sampleErr != nil {
				break
			}
			if s.mem, sampleErr = srv.memStats(); sampleErr != nil {
				break
			}
			syscall.Getrusage(syscall.RUSAGE_SELF, &s.gen)
		}
		tf.samples = append(tf.samples, s)
	}
	wg.Wait()
	if sampleErr != nil {
		return nil, nil, fmt.Errorf("sampling qservd: %w", sampleErr)
	}
	for _, c := range clients {
		tf.recs = append(tf.recs, c.recs...)
		if c.firstErr != nil {
			tf.errs = append(tf.errs, c.firstErr)
		}
	}
	return tf, clients, nil
}

// windowOf returns the window an op completed in, or -1 for warm-up and
// for ops that ended after the last boundary.
func (tf *traffic) windowOf(r rec) int {
	for i := 0; i < tf.windows; i++ {
		if r.end >= tf.samples[i].at && r.end < tf.samples[i+1].at {
			return i
		}
	}
	return -1
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func latency(r rec) int64 { return r.end - r.start }

// firstByte is the time from sending a request to its first response byte.
func firstByte(r rec) int64 { return r.ttfb }

// timings collects, per window, the sorted values in ms that val takes on
// the checked ops keep selects.
func (tf *traffic) timings(keep func(rec) bool, val func(rec) int64) [][]float64 {
	out := make([][]float64, tf.windows)
	for _, r := range tf.recs {
		if i := tf.windowOf(r); i >= 0 && r.ok && keep(r) {
			out[i] = append(out[i], ms(val(r)))
		}
	}
	for _, l := range out {
		sort.Float64s(l)
	}
	return out
}

// endToEnd computes the per-window values of every end-to-end metric that
// comes from traffic; setup_s and rss_peak_mb are per run.
func (tf *traffic) endToEnd() (map[string][]float64, float64, error) {
	ops := make([]float64, tf.windows)
	answers := make([]float64, tf.windows)
	for _, r := range tf.recs {
		if i := tf.windowOf(r); i >= 0 {
			ops[i]++
			answers[i] += float64(r.answers)
		}
	}
	lat := tf.timings(func(rec) bool { return true }, latency)
	var pooled []float64
	per := map[string][]float64{}
	for i := 0; i < tf.windows; i++ {
		if ops[i] < minOps/numWindows {
			return nil, 0, fmt.Errorf("window %d holds %d ops; a run needs %d for its p99", i, int(ops[i]), minOps)
		}
		secs := float64(tf.samples[i+1].at-tf.samples[i].at) / 1e9
		cpu := tf.samples[i+1].cpu
		prev := tf.samples[i].cpu
		p50, _ := percentile(lat[i], 0.5)
		per["ops_per_s"] = append(per["ops_per_s"], ops[i]/secs)
		per["answers_per_s"] = append(per["answers_per_s"], answers[i]/secs)
		per["latency_p50_ms"] = append(per["latency_p50_ms"], p50)
		per["server_cpu_ms_per_op"] = append(per["server_cpu_ms_per_op"],
			float64(cpu.user+cpu.sys-prev.user-prev.sys)*(1000/clockTick)/ops[i])
		pooled = append(pooled, lat[i]...)
	}
	sort.Float64s(pooled)
	p99, ok := percentile(pooled, 0.99)
	if !ok {
		return nil, 0, fmt.Errorf("run holds %d checked ops; p99 needs %d", len(pooled), minOps)
	}
	return per, p99, nil
}

// p50 is the number of checked ops keep selects and the median in ms of val
// over them, pooled over the windows.
func (tf *traffic) p50(keep func(rec) bool, val func(rec) int64) (int, float64) {
	var all []float64
	for _, l := range tf.timings(keep, val) {
		all = append(all, l...)
	}
	sort.Float64s(all)
	p50, _ := percentile(all, 0.5)
	return len(all), p50
}

func cpuSeconds(r syscall.Rusage) float64 {
	return float64(r.Utime.Nano()+r.Stime.Nano()) / 1e9
}

// perLayer derives what the traced run's single window shows from outside
// the server: per-class latencies, the server's own counters, and process
// accounting of server and generator.
func (tf *traffic) perLayer(d *runDetail) map[string]float64 {
	m := map[string]float64{}
	for name, c := range d.Classes {
		m["e2e.p50_ms."+name] = c.P50ms
	}
	_, m["e2e.first_answer_p50_ms"] = tf.p50(func(r rec) bool { return r.class == clStream }, firstByte)
	for metric, ro := range map[string]role{"e2e.deep_page_p50_ms": roleDeep, "e2e.raw_p50_ms": roleRaw, "e2e.bystander_p50_ms": roleBystander} {
		_, m[metric] = tf.p50(func(r rec) bool { return r.role == ro }, latency)
	}
	if d.Result.Attempted > 0 {
		m["e2e.failed_share"] = float64(d.Result.Failed) / float64(d.Result.Attempted)
	}
	a, b := tf.samples[0], tf.samples[1]
	ops := 0.0
	for _, r := range tf.recs {
		if tf.windowOf(r) == 0 {
			ops++
		}
	}
	if ops == 0 {
		return m
	}
	sa, sb := a.stats, b.stats
	m["serve.rejected_429"] = float64(sb.Rejected - sa.Rejected)
	m["serve.shed_503"] = float64(sb.Shed503 - sa.Shed503)
	m["serve.expired_504"] = float64(sb.DeadlineExpired - sa.DeadlineExpired)
	m["serve.stale_410"] = float64(sb.StaleCursors - sa.StaleCursors + sb.StaleHandles - sa.StaleHandles)
	m["serve.stale_plan_retries"] = float64(sb.StaleRetries - sa.StaleRetries)
	m["serve.binds_coalesced"] = float64(sb.BindsCoalesced - sa.BindsCoalesced)
	m["serve.bind_wait_p99_ns"] = float64(sb.BindWaitP99NS)
	hits, misses, refreshes := float64(sb.CacheHits-sa.CacheHits), float64(sb.CacheMisses-sa.CacheMisses), float64(sb.CacheRefreshes-sa.CacheRefreshes)
	m["plan.cache_refreshes"] = refreshes
	if probes := hits + misses + refreshes; probes > 0 {
		m["plan.cache_hit_share"] = hits / probes
	}
	// What a request spends outside this repository's code: client-side
	// median minus the median the server's own handler histogram reports.
	_, clientP50 := tf.p50(func(rec) bool { return true }, latency)
	m["serve.transport_ns"] = clientP50*1e6 - float64(sb.LatencyP50NS)

	const tickMS = 1000 / clockTick
	m["proc.server_user_ms_per_op"] = float64(b.cpu.user-a.cpu.user) * tickMS / ops
	m["proc.server_sys_ms_per_op"] = float64(b.cpu.sys-a.cpu.sys) * tickMS / ops
	m["proc.mallocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / ops
	m["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["proc.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	wall := float64(b.at-a.at) / 1e9
	gen := cpuSeconds(b.gen) - cpuSeconds(a.gen)
	m["proc.gen_cpu_share"] = gen / wall
	if server := float64(b.cpu.user+b.cpu.sys-a.cpu.user-a.cpu.sys) / clockTick; gen > server {
		d.Notes = append(d.Notes, fmt.Sprintf("generator-bound: the generator used %.2fs of CPU, the server %.2fs", gen, server))
	}
	return m
}
