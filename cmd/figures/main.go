// Command figures regenerates every table and figure of the paper's
// evaluation and prints them as aligned text tables (or CSV for plotting).
//
// Usage:
//
//	figures [-fig all|1|2|3|4|6|7|A|X|P2|T] [-trials N] [-seed S] [-csv]
//
// Figure/section identifiers follow the paper: 1-4 are its figures, 6 and
// 7 its implementation and extension sections, A its appendix; X is this
// reproduction's Monte-Carlo cross-check and P2 its Proposition-2 ablation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"redundancy/internal/experiments"
	"redundancy/internal/obs"
	"redundancy/internal/obs/diag"
	"redundancy/internal/report"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate: all,1,2,3,4,6,7,A,X,P2,L,C,T")
	trials := flag.Int("trials", 200, "Monte-Carlo trials for A and X")
	seed := flag.Uint64("seed", 2005, "random seed for Monte-Carlo experiments")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	chart := flag.Bool("chart", false, "also render figures 1 and 3 as ASCII charts")
	metricsAddr := flag.String("metrics-addr", "", "serve Monte-Carlo progress metrics on http://ADDR/metrics while regenerating (empty = off)")
	flag.Parse()

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		experiments.InstrumentMetrics(reg)
		bound, err := diag.Serve(*metricsAddr, reg, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures: metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("figures: progress metrics on http://%s/metrics\n", bound)
	}

	wanted := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		wanted[strings.ToUpper(strings.TrimSpace(f))] = true
	}
	all := wanted["ALL"]
	ran := 0

	emit := func(id string, t *report.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t.String())
		}
		ran++
	}

	if all || wanted["1"] {
		t, err := experiments.Figure1Table()
		emit("figure 1", t, err)
		if *chart {
			fmt.Println(figure1Chart())
		}
	}
	if all || wanted["2"] {
		t, err := experiments.Figure2Table(nil)
		emit("figure 2", t, err)
	}
	if all || wanted["3"] {
		emit("figure 3", experiments.Figure3Table(), nil)
		if *chart {
			fmt.Println(figure3Chart())
		}
	}
	if all || wanted["4"] {
		t, err := experiments.Figure4Table()
		emit("figure 4", t, err)
	}
	if all || wanted["6"] {
		t, err := experiments.Section6Table()
		emit("section 6", t, err)
	}
	if all || wanted["7"] {
		emit("section 7", experiments.Section7Table(), nil)
	}
	if all || wanted["A"] {
		t, err := experiments.AppendixATable(*trials, *seed)
		emit("appendix A", t, err)
	}
	if all || wanted["X"] {
		t, err := experiments.CrossCheckTable(max(1, *trials/20), *seed)
		emit("cross-check", t, err)
	}
	if all || wanted["P2"] {
		t, err := experiments.Proposition2Table(0)
		emit("proposition 2", t, err)
	}
	if all || wanted["L"] {
		t, err := experiments.DetectionLatencyTable(10_000, 500, max(2, *trials/20), *seed)
		emit("detection latency", t, err)
	}
	if all || wanted["C"] {
		t, err := experiments.CampaignTable(5_000, 200, 12, *seed)
		emit("campaign", t, err)
	}
	if all || wanted["T"] {
		t, err := experiments.TailSweepTable(20_000, max(2, *trials/50), *seed)
		emit("tail latency", t, err)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "figures: nothing matched -fig=%s (use all,1,2,3,4,6,7,A,X,P2,L,C,T)\n", *fig)
		os.Exit(2)
	}
}

// figure1Chart renders Figure 1 as an ASCII chart.
func figure1Chart() string {
	rows, err := experiments.Figure1()
	if err != nil {
		return "chart: " + err.Error()
	}
	var xs, bal, s19, s26 []float64
	for _, r := range rows {
		xs = append(xs, r.P)
		bal = append(bal, r.Balanced)
		s19 = append(s19, r.S19)
		s26 = append(s26, r.S26)
	}
	c := report.NewChart("Figure 1 (chart): detection probability vs proportion controlled",
		"proportion controlled by adversary", "P(detect)")
	c.AddSeries("Balanced", xs, bal)
	c.AddSeries("S_19 (N=1e5)", xs, s19)
	c.AddSeries("S_26 (N=1e6)", xs, s26)
	return c.String()
}

// figure3Chart renders Figure 3 as an ASCII chart.
func figure3Chart() string {
	rows := experiments.Figure3()
	var xs, bal, gs, simple, lb []float64
	for _, r := range rows {
		xs = append(xs, r.Epsilon)
		bal = append(bal, r.Balanced)
		gs = append(gs, r.GS)
		simple = append(simple, r.Simple)
		lb = append(lb, r.LowerBound)
	}
	c := report.NewChart("Figure 3 (chart): redundancy factors vs ε",
		"detection threshold ε", "redundancy factor")
	c.AddSeries("Balanced", xs, bal)
	c.AddSeries("Golle-Stubblebine", xs, gs)
	c.AddSeries("Simple", xs, simple)
	c.AddSeries("Lower bound", xs, lb)
	return c.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
