package main

import (
	"fmt"
	"strconv"
	"time"
)

// runDetail is one run with everything the harness knows about it; the
// driver reads only Result, the full-mode report keeps the rest.
type runDetail struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    bool                 `json:"trace"`
	Result   result               `json:"result"`
	Windows  map[string][]float64 `json:"windows,omitempty"` // per-window values behind each median
	Spread   map[string]float64   `json:"spread,omitempty"`  // (max-min)/median over the windows
	Setups   []float64            `json:"setups_s,omitempty"`
	Errors   []string             `json:"errors,omitempty"`
	Notes    []string             `json:"notes,omitempty"`
	LoadAvg  float64              `json:"loadavg_1m"`
	Script   string               `json:"script_hash"`
	Noisy    bool                 `json:"noisy,omitempty"`
	Classes  map[string]classStat `json:"classes,omitempty"`
}

// classStat summarizes one op class over the measured windows.
type classStat struct {
	Ops   int     `json:"ops"`
	P50ms float64 `json:"p50_ms"`
}

// prepare generates D1(seed), writes its files and builds the oracle.
func prepare(o runOpts) (*world, error) {
	data := buildDataset(o.seed, o.sc)
	if err := data.writeFiles(o.dir); err != nil {
		return nil, err
	}
	return newWorld(o.seed, data, o.wl, o.clients), nil
}

func warmupFor(seconds float64) time.Duration {
	w := seconds / 10
	if w > 2 {
		w = 2
	}
	return time.Duration(w * float64(time.Second))
}

func newDetail(o runOpts, w *world, trace bool) *runDetail {
	la, _ := loadAvg1()
	return &runDetail{Workload: o.wl.name, Seed: o.seed, Trace: trace, LoadAvg: la,
		Script: strconv.FormatUint(scriptHash(w, o.wl, o.clients, 256), 16)}
}

// tally counts the traffic's failures and, with the clients stopped, runs
// the workload's final check.
func (d *runDetail) tally(o runOpts, w *world, srv *server, clients []*client, tf *traffic) {
	d.Result.Attempted = int64(len(tf.recs))
	for _, r := range tf.recs {
		if !r.ok {
			d.Result.Failed++
		}
	}
	for _, e := range tf.errs {
		d.Errors = append(d.Errors, e.Error())
	}
	if err := finalCheck(o, w, srv, clients); err != nil {
		d.Errors = append(d.Errors, err.Error())
	}
	d.Result.Correct = d.Result.Failed == 0 && len(d.Errors) == 0
	d.Classes = map[string]classStat{}
	for cl, name := range classNames {
		if n, p50 := tf.p50(func(r rec) bool { return r.class == class(cl) }, latency); n > 0 {
			d.Classes[name] = classStat{n, p50}
		}
	}
}

// runMeasured is a run with tracing off: it reports the end-to-end metrics.
func runMeasured(o runOpts) (*runDetail, error) {
	w, err := prepare(o)
	if err != nil {
		return nil, err
	}
	d := newDetail(o, w, false)
	var srv *server
	var handles map[string]string
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		if srv, handles, took, err = boot(o, w, strconv.Itoa(i)); err != nil {
			return nil, err
		}
		spent += took
		d.Setups = append(d.Setups, took.Seconds())
	}
	defer srv.stop()

	window := time.Duration(o.seconds / numWindows * float64(time.Second))
	tf, clients, err := drive(o, w, srv, handles, warmupFor(o.seconds), window, numWindows, false)
	if err != nil {
		return nil, err
	}
	d.tally(o, w, srv, clients, tf)
	rss, err := procPeakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	per, p99, err := tf.endToEnd()
	if err != nil {
		if !d.Result.Correct {
			return nil, fmt.Errorf("%w (first failure: %s)", err, d.Errors[0])
		}
		return nil, err
	}
	values := map[string]float64{"setup_s": median(d.Setups), "latency_p99_ms": p99, "rss_peak_mb": rss}
	d.Windows, d.Spread = per, map[string]float64{"setup_s": spread(d.Setups)}
	for name, v := range per {
		values[name] = median(v)
		d.Spread[name] = spread(v)
	}
	d.Result.Metrics = fill(endToEndDefs, values)
	return d, nil
}

// runTraced is the traced run: one measured window against the real server,
// sampled from outside, then the in-process replay and the layer probes. It
// reports the per-layer metrics and writes the trace.
func runTraced(o runOpts, root string) (*runDetail, error) {
	w, err := prepare(o)
	if err != nil {
		return nil, err
	}
	d := newDetail(o, w, true)
	srv, handles, _, err := boot(o, w, "traced")
	if err != nil {
		return nil, err
	}
	// One window of half the run's length: the replay and the probes need
	// the other half of the time a run may take.
	window := time.Duration(o.seconds / 2 * float64(time.Second))
	tf, clients, err := drive(o, w, srv, handles, warmupFor(o.seconds), window, 1, true)
	if err == nil {
		d.tally(o, w, srv, clients, tf)
	}
	srv.stop()
	if err != nil {
		return nil, err
	}
	values := tf.perLayer(d)
	replayed, trace, err := replay(o, w)
	if err != nil {
		return nil, err
	}
	probed, err := probes(o, w)
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]float64{replayed, probed} {
		for k, v := range m {
			values[k] = v
		}
	}
	if err := writeTrace(root, trace); err != nil {
		return nil, err
	}
	d.Result.Metrics = fill(perLayerDefs, values)
	return d, nil
}

// finalCheck runs once the clients have stopped. For churn_rw the database
// is now quiescent, so what it holds must match the mutation scripts' model
// exactly: the generated rows plus each client's tuple still in place.
func finalCheck(o runOpts, w *world, srv *server, clients []*client) error {
	if !o.wl.mutates {
		return nil
	}
	pd := w.pairData(pairS)
	fc2, path3 := *w.expect(shapeFC2, pairS), *w.expect(shapePath3, pairS)
	for _, c := range clients {
		if c.live == nil {
			continue
		}
		x, y := c.live[0], c.live[1]
		if pd.label[y] {
			fc2.count++
			fc2.sum += tupleHash([]int64{x, y})
		}
		// x lies above the domain: no edge ends in it, so the tuple only
		// ever extends paths as their first edge.
		path3.count += int64(len(pd.out[y]))
	}
	for _, q := range []struct {
		st   *stmt
		want int64
	}{{stFC2s, fc2.count}, {stPath3s, path3.count}, {stFC2b, w.expect(shapeFC2, pairB).count}} {
		var cr pointResp
		if err := srv.postJSON("/v1/count", map[string]string{"query": q.st.text}, &cr); err != nil {
			return err
		}
		if cr.Count != strconv.FormatInt(q.want, 10) {
			return fmt.Errorf("quiesced %s counts %q, the model %d", q.st.key, cr.Count, q.want)
		}
	}
	tr := newHTTPTransport(srv.base)
	defer tr.close()
	status, body, _, err := tr.post("/v1/enumerate", []byte(`{"stream":true,"query":`+strconv.Quote(stFC2s.text)+`}`))
	if err != nil || status != 200 {
		return fmt.Errorf("quiesced stream: status %d: %v", status, err)
	}
	n, sum, _, err := parseStream(body, 2)
	if err != nil || n != fc2.count || sum != fc2.sum {
		return fmt.Errorf("quiesced fc2_s streams %d answers (checksum %x), the model %d (%x): %v", n, sum, fc2.count, fc2.sum, err)
	}
	return nil
}
