package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// selfcheckReported are the ungated time-based figures the selfcheck
// tabulates beside the gated metrics, so the table shows what the host did
// to them during the check.
var selfcheckReported = []string{"harness.throughput_ops_s", "harness.get_p50_us", "harness.put_p50_us",
	"harness.cpu_us_per_op", "harness.get_p99_us", "harness.put_p99_us"}

// runSelfcheck answers "do two sets of runs of the same code agree within
// the benchmark's own bounds?": it makes two sets of runs of every
// workload on the current tree — each run a fresh process with its own
// seed, workloads alternating so a disturbed minute lands on all of them —
// and prints, per metric, both set medians, quartiles, the run-to-run
// spread, the difference between the sets, and the bound. It fails when a
// gated metric's spread or worsening between the sets exceeds its bound.
func runSelfcheck(o options, runs int, out io.Writer) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs -runs of at least 2, got %d", runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run.
	var values [2]map[string]map[string][]float64
	start := time.Now()
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for r := 0; r < runs; r++ {
			for _, spec := range workloads {
				seed := o.seed + uint64(set*runs+r)
				doc, err := runChild(self, spec.Name, seed, o)
				if err != nil {
					return fmt.Errorf("set %d run %d of %s: %w", set+1, r+1, spec.Name, err)
				}
				byMetric := values[set][spec.Name]
				if byMetric == nil {
					byMetric = make(map[string][]float64)
					values[set][spec.Name] = byMetric
				}
				for name, v := range doc.Metrics {
					byMetric[name] = append(byMetric[name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d run %d/%d %s done (%.0fs elapsed)\n",
					set+1, r+1, runs, spec.Name, time.Since(start).Seconds())
			}
		}
	}

	env := captureEnvironment()
	fmt.Fprintf(out, "# Run-to-run noise of the benchmark\n\n")
	fmt.Fprintf(out, "`benchmark -selfcheck -runs %d -seconds %g`: two sets of %d runs of every workload on one tree, "+
		"workloads alternating, every run a fresh process with its own seed (%d to %d).\n\n",
		runs, o.seconds, runs, o.seed, o.seed+uint64(2*runs-1))
	fmt.Fprintf(out, "Host: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s. Wall time %.0f s.\n\n",
		env.NProc, env.GoMaxProcs, env.GoVersion, env.GOOS, env.GOARCH, env.Commit, time.Since(start).Seconds())
	fmt.Fprintf(out, "`spread` is (Q3 − Q1) / median of a set's runs, quartiles as Python's `statistics.quantiles(v, n=4)`; "+
		"`worse` is how much the second set's median is worse than the first's (negative = better). "+
		"A gated metric passes when both spreads and `worse` are within its bound; `setup_s` is held to `worse` only. "+
		"The `harness.*` rows are reported, not gated: they show what the host did to the time-based figures during the check.\n\n")
	defs := slices.Clone(endToEnd)
	for _, def := range perLayer {
		if slices.Contains(selfcheckReported, def.Name) {
			defs = append(defs, def)
		}
	}
	// spread is the distance between the quartiles as a share of the median.
	spread := func(q1, q2, q3 float64) float64 {
		if q2 == 0 {
			return 0
		}
		return (q3 - q1) / q2
	}
	var failures []string
	for _, spec := range workloads {
		fmt.Fprintf(out, "## %s\n\n", spec.Name)
		fmt.Fprintf(out, "| metric | unit | set 1 median [Q1, Q3] | set 2 median [Q1, Q3] | spread 1 | spread 2 | worse | bound | |\n")
		fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|\n")
		for _, def := range defs {
			a, b := values[0][spec.Name][def.Name], values[1][spec.Name][def.Name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := 0.0
			if a2 != 0 {
				worse = (b2 - a2) / a2
				if def.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(a1, a2, a3), spread(b1, b2, b3)
			bound, verdict := "—", "reported"
			if def.Bound > 0 {
				bound, verdict = fmt.Sprintf("%.0f%%", def.Bound*100), "ok"
				if worse > def.Bound || (def.Name != "setup_s" && (sa > def.Bound || sb > def.Bound)) {
					verdict = "FAIL"
					failures = append(failures, spec.Name+"/"+def.Name)
				}
			}
			fmt.Fprintf(out, "| `%s` | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.2f%% | %.2f%% | %+.2f%% | %s | %s |\n",
				def.Name, def.Unit, a2, a1, a3, b2, b1, b3, sa*100, sb*100, worse*100, bound, verdict)
		}
		fmt.Fprintln(out)
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: outside the bound: %s", strings.Join(failures, ", "))
	}
	fmt.Fprintln(out, "Every gated end-to-end metric of every workload is within its bound.")
	return nil
}

// runChild runs one untraced workload run in a fresh process, as the
// driver does, and reads back the result document it wrote.
func runChild(self, workload string, seed uint64, o options) (*resultDoc, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err // a run whose outputs failed verification exits non-zero
	}
	b, err := os.ReadFile(filepath.Join(o.outDir, "result-"+workload+".json"))
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("result document: %w", err)
	}
	return &doc, nil
}
