// Command worker is a platform participant: it connects to a supervisor,
// registers, downloads assignments, executes the work function locally,
// and returns results until the computation completes.
//
// Usage:
//
//	worker -addr 127.0.0.1:9090 -name alice
//	worker -addr 127.0.0.1:9090 -name mallory -cheat 1.0 -cheatseed 7
//
// Multiple workers started with the same -cheat probability and -cheatseed
// collude: they return identical incorrect values, modeling the paper's
// coalition adversary.
//
// By default the worker survives connection failures (-reconnect): it
// redials with exponential backoff, resumes its identity with the token
// the supervisor minted at registration, and picks its in-flight
// assignment back up. -chaos injects deterministic, seeded faults into
// this worker's own connections (drops, latency, torn frames, corruption)
// to exercise exactly that machinery; see DESIGN.md's failure-model
// section.
//
// -metrics-addr serves the worker's own RTT histogram and completion
// counters on /metrics; -events appends one JSON line per assignment
// lifecycle event. See OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"redundancy"
	"redundancy/internal/obs/diag"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "supervisor address")
	name := flag.String("name", "worker", "participant name")
	cheat := flag.Float64("cheat", 0, "probability of cheating on each task (0 = honest)")
	cheatSeed := flag.Uint64("cheatseed", 1, "coalition seed; workers sharing it collude")
	maxAssign := flag.Int("max", 0, "stop after this many assignments (0 = run to completion)")
	speedBase := flag.Duration("speed-base", 0, "heterogeneous speed model: base compute time per assignment")
	speedJitter := flag.Duration("speed-jitter", 0, "heterogeneous speed model: uniform extra delay in [0, jitter) per assignment")
	stragglerP := flag.Float64("straggler-p", 0, "heterogeneous speed model: per-assignment probability of a straggler episode")
	stragglerDelay := flag.Duration("straggler-delay", 0, "heterogeneous speed model: extra delay a straggler episode adds")
	speedSeed := flag.Uint64("speed-seed", 0, "seed for the worker's jitter and speed draws (0 = derive from -name)")
	batch := flag.Int("batch", redundancy.DefaultMaxBatch, "assignments to lease per get_work round trip (1 = single-assignment protocol)")
	proto := flag.String("proto", redundancy.ProtoJSON, "wire codec to request at registration: json | bin (binary falls back to JSON against supervisors that do not speak it)")
	reconnect := flag.Bool("reconnect", true, "survive connection failures: redial with backoff and resume the same identity")
	maxReconnects := flag.Int("max-reconnects", 8, "consecutive failed sessions before giving up (with -reconnect)")
	chaos := flag.String("chaos", "", `inject faults into this worker's connections, e.g. "seed=7,drop=0.02,corrupt=0.01,latency=2ms" (empty = off)`)
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics on http://ADDR/metrics (empty = off)")
	profile := flag.Bool("profile", false, "enable mutex and block contention profiling (served at /debug/pprof on -metrics-addr)")
	events := flag.String("events", "", "append one JSON line per worker event to this file (empty = off)")
	flag.Parse()
	if *batch < 1 {
		log.Fatalf("worker: -batch must be at least 1 (got %d)", *batch)
	}
	if *proto != redundancy.ProtoJSON && *proto != redundancy.ProtoBinary {
		log.Fatalf("worker: -proto must be %q or %q (got %q)",
			redundancy.ProtoJSON, redundancy.ProtoBinary, *proto)
	}

	cfg := redundancy.WorkerConfig{
		Addr:           *addr,
		Name:           *name,
		MaxAssignments: *maxAssign,
		BatchSize:      *batch,
		Seed:           *speedSeed,
		Reconnect:      *reconnect,
		MaxReconnects:  *maxReconnects,
	}
	if *speedBase != 0 || *speedJitter != 0 || *stragglerP != 0 || *stragglerDelay != 0 {
		if *stragglerP < 0 || *stragglerP > 1 {
			log.Fatalf("worker: -straggler-p must be in [0,1] (got %v)", *stragglerP)
		}
		cfg.Speed = &redundancy.SpeedModel{
			Base:           *speedBase,
			Jitter:         *speedJitter,
			StragglerP:     *stragglerP,
			StragglerDelay: *stragglerDelay,
		}
	}
	if *proto == redundancy.ProtoBinary {
		cfg.Proto = redundancy.ProtoBinary
	}
	if *cheat > 0 {
		cfg.Cheat = redundancy.NewWorkerCoalition(*cheat, *cheatSeed).CheatFunc()
	}
	if *chaos != "" {
		fc, err := redundancy.ParseFaultConfig(*chaos)
		if err != nil {
			log.Fatal("worker: ", err)
		}
		inj, err := redundancy.NewFaultInjector(fc)
		if err != nil {
			log.Fatal("worker: ", err)
		}
		cfg.Dial = func(a string) (net.Conn, error) { return inj.Dial("tcp", a) }
	}
	if *metricsAddr != "" {
		cfg.Metrics = redundancy.NewMetricsRegistry()
	}
	bound, err := diag.Serve(*metricsAddr, cfg.Metrics, *profile)
	if err != nil {
		log.Fatal("worker: metrics: ", err)
	}
	if bound != "" {
		fmt.Printf("worker %s: metrics on http://%s/metrics (pprof on /debug/pprof)\n", *name, bound)
	}
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal("worker: events: ", err)
		}
		defer f.Close()
		cfg.Events = redundancy.NewEventSink(f)
	}

	start := time.Now()
	stats, err := redundancy.RunWorker(cfg)
	if err != nil {
		log.Fatalf("worker %s (participant %d): %v", *name, stats.ParticipantID, err)
	}
	fmt.Printf("worker %s: participant %d completed %d assignments (%d cheated) in %v\n",
		*name, stats.ParticipantID, stats.Completed, stats.Cheated, time.Since(start).Round(time.Millisecond))
}
