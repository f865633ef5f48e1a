// Command qservd is the query-serving daemon: a long-running HTTP/JSON
// server that keeps a plan.Cache of prepared statements warm across
// requests and serves decide/count/enumerate over a mutable database.
//
// Usage:
//
//	qservd -data facts.txt -addr :8080    # database from a fact file
//	qservd -data facts.snap -addr :8080   # mmap a prebuilt snapshot (see qsnap)
//
// Protocol (POST JSON unless noted):
//
//	/v1/prepare    {"query": "..."}                → fingerprint, engines, statement handle
//	/v1/decide     {"query" | "handle"}            → boolean answer
//	/v1/count      {"query" | "handle"}            → exact count (decimal string)
//	/v1/enumerate  {"query" | "handle", "limit", "cursor"} → one page + resumable cursor
//	/v1/enumerate  {..., "stream": true}           → NDJSON answer stream
//	/v1/mutate     {"pred", "op", "tuple"}         → single-tuple insert/delete
//	/healthz (GET), /v1/stats (GET), /debug/vars, /debug/pprof/*
//
// Enumeration cursors and statement handles are opaque, authenticated, and
// stateless: they outlive cache evictions and in-place refreshes, but not
// the process — each process signs them with a key of its own, so a
// restart answers every earlier token with 400.
//
// All tuning is serve.Config's defaults. A bind storm cannot block warm
// traffic: cold binds run in a deadline-aware lane that sheds, with 503 and
// a Retry-After hint, each request whose deadline cannot survive the wait.
package main

import (
	_ "expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataPath := flag.String("data", "", "fact file or snapshot to serve (required)")
	flag.Parse()

	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "qservd: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	// The snapshot mapping (if any) lives for the process; the closer is
	// deliberately dropped — a daemon never unmaps its own database.
	db, dict, _, err := core.LoadPath(*dataPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qservd: loaded %s (%d relations, generation %d)\n",
		*dataPath, len(db.Names()), db.Generation())

	srv := serve.New(db, dict, serve.Config{})
	srv.Publish("qservd")

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	// expvar and pprof register themselves on the default mux; mount it
	// under /debug/ so /debug/vars and /debug/pprof/* work as usual.
	mux.Handle("/debug/", http.DefaultServeMux)

	fmt.Printf("qservd: serving on %s\n", *addr)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := hs.ListenAndServe(); err != nil {
		fatal(err)
	}
}

// The socket timeouts. A client gets readHeaderTimeout to send its request
// headers and may keep an idle connection open for idleTimeout. There is no
// WriteTimeout: it would cut legitimate streams, which may run for the
// 30 s maximum deadline; a stream bounds its own writes by its deadline
// instead (serve's streamAnswers).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qservd:", err)
	os.Exit(1)
}
