// Command supervisor runs the trusted coordinator of the mini volunteer
// platform: it serves a redundancy plan's assignments to workers over TCP,
// certifies results by redundancy, checks ringers, and prints a final
// integrity summary once every task is adjudicated.
//
// Usage:
//
//	supervisor -addr :9090 -n 10000 -eps 0.5 -work primecount -iters 5000 \
//	           -metrics-addr :9091 -events events.jsonl
//
// Then start any number of workers (see cmd/worker) pointed at the
// address. With -metrics-addr set, `curl :9091/metrics` returns the live
// Prometheus counters; -events appends one JSON line per platform event.
// OBSERVABILITY.md documents both surfaces.
//
// The lifecycle is crash-tolerant: -journal records accepted results and
// resumes from them on restart (-journal-sync fsyncs before each ack so a
// kill -9 loses nothing), a torn final record left by a crash is
// truncated away on restore, SIGINT/SIGTERM triggers a graceful drain
// bounded by -drain, -io-timeout disconnects stalled workers so their
// assignments are reissued, and -chaos injects deterministic seeded
// faults into every accepted connection for self-testing. See DESIGN.md's
// failure-model section.
//
// With -adapt the supervisor additionally estimates the adversary's
// assignment share p̂ from its own verification verdicts and revises the
// plan mid-run — promoting still-queued tasks and minting extra ringers —
// whenever the estimate's upper confidence bound would drag detection
// below -target-eps. Revisions are journaled and survive restarts. See
// DESIGN.md's adaptive-control section.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"redundancy"
)

// serveMetrics exposes reg at http://addr/metrics — plus the net/http/pprof
// endpoints under /debug/pprof/ — and returns the bound address (addr may
// use port 0). The profiling surface rides the metrics listener on purpose:
// it is on only when the operator opted into a diagnostics port, never on
// the worker-facing protocol address.
func serveMetrics(addr string, reg *redundancy.MetricsRegistry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

// enableContentionProfiles turns on the runtime's lock-contention
// samplers so /debug/pprof/mutex and /debug/pprof/block return data:
// mutex contention sampled 1-in-5, block events recorded from 10µs up.
// Off by default — both add steady-state bookkeeping cost.
func enableContentionProfiles() {
	runtime.SetMutexProfileFraction(5)
	runtime.SetBlockProfileRate(int(10 * time.Microsecond / time.Nanosecond))
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "TCP listen address")
	n := flag.Int("n", 10_000, "number of tasks")
	eps := flag.Float64("eps", 0.5, "detection threshold ε")
	scheme := flag.String("scheme", "balanced", "balanced | gs | simple")
	work := flag.String("work", "hashchain", "work kind: hashchain | primecount | collatz | logistic")
	iters := flag.Int("iters", 2000, "per-assignment work amount")
	policy := flag.String("policy", "free", "free | one-outstanding")
	seed := flag.Uint64("seed", 1, "assignment shuffle seed")
	batch := flag.Int("batch", redundancy.DefaultMaxBatch, "max assignments per work_batch lease (1 = single-assignment leases)")
	quiet := flag.Bool("quiet", false, "suppress per-event logging")
	planFile := flag.String("planfile", "", "load the plan from a JSON file written by redcalc -save (overrides -n/-eps/-scheme)")
	journal := flag.String("journal", "", "append accepted results to this file and resume from it if it exists")
	journalSync := flag.Bool("journal-sync", false, "fsync the journal before acking accepted results, once per commit window (crash-safe, slower)")
	snapshotInterval := flag.Int("snapshot-interval", 0, "every N appended records, atomically replace the journal with a state snapshot, keeping journal size and restart cost proportional to live state (0 = off; requires -journal and the free policy)")
	profile := flag.Bool("profile", false, "enable mutex and block contention profiling (served at /debug/pprof on -metrics-addr)")
	ioTimeout := flag.Duration("io-timeout", 2*time.Minute, "per-message read/write deadline on worker connections (0 = none)")
	drainTimeout := flag.Duration("drain", 10*time.Second, "on SIGINT/SIGTERM, wait this long for in-flight results before closing")
	chaos := flag.String("chaos", "", `inject faults into accepted connections, e.g. "seed=7,drop=0.02,corrupt=0.01,latency=2ms" (empty = off)`)
	resolve := flag.Bool("resolve", false, "recompute disputed tasks on the supervisor (reactive measure)")
	digits := flag.Int("digits", 0, "match float64 results to this many significant digits (0 = exact)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics on http://ADDR/metrics (empty = off)")
	events := flag.String("events", "", "append one JSON line per platform event to this file (empty = off)")
	adaptive := flag.Bool("adapt", false, "estimate the adversary share p̂ online and revise the plan mid-run to keep detection at the target ε (free policy only)")
	targetEps := flag.Float64("target-eps", 0, "detection threshold the adaptive controller defends (0 = the plan's ε)")
	adaptInterval := flag.Duration("adapt-interval", 0, "how often the adaptive controller re-evaluates p̂ (0 = 250ms)")
	deadline := flag.Duration("deadline", 0, "reclaim assignments still out after this long and reissue them (0 = never; required by -speculate-pct)")
	speculatePct := flag.Float64("speculate-pct", 0, "speculative reissue percentile in (0,1): duplicate a still-leased copy to a second participant once it exceeds this completion-time percentile; first result wins (0 = off; requires -deadline and the free policy)")
	quarSuspects := flag.Int("quarantine-suspects", 0, "quarantine a participant after this many circumstantial suspect verdicts (0 = quarantine off; free policy only)")
	quarFailRate := flag.Float64("quarantine-failure-rate", 0, "quarantine a participant whose deadline-reclaim rate exceeds this fraction of issued work (0 = default 0.5; needs -quarantine-suspects)")
	quarProbation := flag.Duration("quarantine-probation", 0, "how long a quarantined participant waits before probationary re-admission (0 = default 10s)")
	quarRingers := flag.Int("quarantine-ringers", 0, "clean ringer results a probationary participant must return before full re-admission (0 = default 3)")
	flag.Parse()
	if *batch < 1 {
		log.Fatalf("supervisor: -batch must be at least 1 (got %d)", *batch)
	}

	var pl *redundancy.Plan
	if *planFile != "" {
		f, err := os.Open(*planFile)
		if err != nil {
			log.Fatal("supervisor: ", err)
		}
		pl, err = redundancy.LoadPlan(f)
		f.Close()
		if err != nil {
			log.Fatal("supervisor: ", err)
		}
	} else {
		var d *redundancy.Distribution
		var err error
		switch *scheme {
		case "balanced":
			d, err = redundancy.Balanced(float64(*n), *eps)
		case "gs":
			d, err = redundancy.GolleStubblebineForThreshold(float64(*n), *eps)
		case "simple":
			d = redundancy.Simple(float64(*n))
		default:
			err = fmt.Errorf("unknown scheme %q", *scheme)
		}
		if err != nil {
			log.Fatal("supervisor: ", err)
		}
		pl, err = redundancy.PlanFor(d, *eps)
		if err != nil {
			log.Fatal("supervisor: ", err)
		}
	}

	var pol redundancy.Policy
	switch *policy {
	case "free":
		pol = redundancy.PolicyFree
	case "one-outstanding":
		pol = redundancy.PolicyOneOutstanding
	default:
		log.Fatalf("supervisor: unknown -policy %q (free | one-outstanding)", *policy)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	cfg := redundancy.SupervisorConfig{
		Plan:              pl,
		Policy:            pol,
		WorkKind:          *work,
		Iters:             *iters,
		Seed:              *seed,
		MaxBatch:          *batch,
		Deadline:          *deadline,
		SpeculatePct:      *speculatePct,
		IOTimeout:         *ioTimeout,
		JournalSync:       *journalSync,
		ResolveMismatches: *resolve,
		ResultDigits:      *digits,
		Logf:              logf,
	}
	if *quarSuspects > 0 {
		cfg.Health = &redundancy.HealthConfig{
			SuspectLimit:     *quarSuspects,
			FailureRate:      *quarFailRate,
			Probation:        *quarProbation,
			ProbationRingers: *quarRingers,
		}
	} else if *quarFailRate != 0 || *quarProbation != 0 || *quarRingers != 0 {
		log.Fatal("supervisor: -quarantine-failure-rate/-probation/-ringers need -quarantine-suspects")
	}
	if *adaptive {
		te := *targetEps
		if te == 0 {
			te = pl.Epsilon
		}
		cfg.Adapt = &redundancy.AdaptConfig{TargetEpsilon: te, Interval: *adaptInterval}
	}
	if *journal != "" {
		if prev, err := os.ReadFile(*journal); err == nil && len(prev) > 0 {
			cfg.Restore = bytes.NewReader(prev)
		}
		f, err := redundancy.OpenJournalFile(*journal)
		if err != nil {
			log.Fatal("supervisor: ", err)
		}
		defer f.Close()
		cfg.Journal = f
		cfg.SnapshotInterval = *snapshotInterval
	} else if *snapshotInterval > 0 {
		log.Fatal("supervisor: -snapshot-interval requires -journal")
	}
	if *chaos != "" {
		fc, err := redundancy.ParseFaultConfig(*chaos)
		if err != nil {
			log.Fatal("supervisor: ", err)
		}
		inj, err := redundancy.NewFaultInjector(fc)
		if err != nil {
			log.Fatal("supervisor: ", err)
		}
		cfg.WrapListener = inj.Listener
	}
	cfg.Metrics = redundancy.NewMetricsRegistry()
	if *profile {
		enableContentionProfiles()
	}
	if *metricsAddr != "" {
		bound, err := serveMetrics(*metricsAddr, cfg.Metrics)
		if err != nil {
			log.Fatal("supervisor: metrics: ", err)
		}
		fmt.Printf("supervisor: metrics on http://%s/metrics (pprof on /debug/pprof)\n", bound)
	}
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal("supervisor: events: ", err)
		}
		defer f.Close()
		cfg.Events = redundancy.NewEventSink(f)
	}
	sup, err := redundancy.NewSupervisor(cfg)
	if err != nil {
		log.Fatal("supervisor: ", err)
	}
	bound, err := sup.Start(*addr)
	if err != nil {
		log.Fatal("supervisor: ", err)
	}
	fmt.Printf("supervisor: serving %s on %s (%d assignments, factor %.4f, %d ringers)\n",
		pl, bound, pl.TotalAssignments(), pl.RedundancyFactor(), pl.Ringers)

	done := make(chan struct{})
	go func() { sup.Wait(); close(done) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	interrupted := false
	select {
	case <-done:
	case sig := <-sigCh:
		// Graceful drain: stop issuing, let in-flight results land (up to
		// -drain), flush the journal, then report progress so far. A
		// second signal during the drain kills the process the hard way.
		signal.Stop(sigCh)
		fmt.Fprintf(os.Stderr, "\nsupervisor: caught %v, draining for up to %v\n", sig, *drainTimeout)
		interrupted = true
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := sup.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "supervisor: drain incomplete:", err)
		}
		cancel()
	}
	sum := sup.Summary()
	if interrupted {
		fmt.Println("\ninterrupted; progress so far (resume with the same -journal)")
	} else {
		fmt.Println("\ncomputation complete")
	}
	fmt.Printf("participants:       %d\n", sum.Participants)
	fmt.Printf("tasks certified:    %d of %d\n", sum.Verify.Accepted, sum.Verify.Tasks)
	fmt.Printf("cheats detected:    %d (ringer catches: %d)\n",
		sum.Verify.MismatchDetected, sum.Verify.RingersCaught)
	fmt.Printf("wrong results:      %d\n", sum.WrongResults)
	fmt.Printf("blacklist:          %v\n", sum.Blacklist)
	if est, on := sup.AdaptiveEstimate(); on {
		fmt.Printf("adaptive:           p̂=%.4f [%.4f, %.4f], %d plan revision(s)\n",
			est.PHat, est.Lower, est.Upper, sup.RevisionsApplied())
	}
	if !interrupted {
		if err := sup.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "supervisor: close:", err)
		}
	}
}
