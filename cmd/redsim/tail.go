package main

// The -tail mode: the tail-latency sweep on the allocation-free
// completion-time engine.

import (
	"fmt"
	"io"

	"redundancy/internal/experiments"
)

// tailSweepConfig resolves the CLI knobs into a sweep configuration.
// scale overrides the task count to the 10^7 tier (with fewer trials, so
// the sweep stays CI-feasible: one trial of every cell still walks ~10^8
// simulated completions).
func tailSweepConfig(tasks, trials, participants, workers int, eps float64, seed uint64, scale bool) experiments.TailSweepConfig {
	if scale {
		tasks = 10_000_000
		if trials == 0 {
			trials = 1
		}
	}
	cfg := experiments.DefaultTailSweepConfig(tasks)
	if trials > 0 {
		cfg.Trials = trials
	}
	if participants > 0 {
		cfg.Participants = participants
	}
	cfg.Workers = workers
	cfg.Epsilon = eps
	cfg.Seed = seed
	return cfg
}

// runTail executes the sweep and prints the comparison table.
func runTail(cfg experiments.TailSweepConfig, w io.Writer) error {
	rep, err := experiments.TailSweep(cfg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, rep.Table().String())
	return err
}
