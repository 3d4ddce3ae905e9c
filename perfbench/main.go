// Command perfbench is the repository benchmark. One invocation runs one
// seeded, closed-loop workload in a fresh process, checks every result
// against a serial reference, and prints its metrics:
//
//	perfbench -workload psa-atoms -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the same workload with per-layer timing and replays and prints the
// per-layer metrics instead. The last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}; everything
// before it is a human-readable report headed by the host record.
// README.md in this directory documents each workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// config is one invocation's resolved flags.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	mdserver string // cmd/mdserver binary, for serve-mix
	workdir  string // scratch space for data dirs and trace files
}

// setupsPerRun is how many times an untraced run sets its workload up;
// setup_s reports the median.
const setupsPerRun = 3

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what a workload hands back for printing.
type report struct {
	attempted int
	failed    int // failed, refused or wrong-result jobs
	wrong     int // the subset of failed whose result did not verify
	metrics   []metric
	notes     []string // extra report lines (tail percentile, counts)
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"psa-atoms":        runPSAAtoms,
	"psa-frames":       runPSAFrames,
	"leaflet-membrane": runLeafletMembrane,
	"serve-mix":        runServeMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the report. It returns
// the process exit code: 0 only when every job completed and verified.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, hostRecord())
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	total0, steal0 := hostTicks()
	rep, err := workloads[cfg.workload](cfg)
	if total, steal := hostTicks(); total > total0 {
		fmt.Fprintf(stdout, "host cpu steal during the run: %.1f%%\n", 100*float64(steal-steal0)/float64(total-total0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d jobs failed (%d wrong results)\n", rep.failed, rep.attempted, rep.wrong)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: psa-atoms|psa-frames|leaflet-membrane|serve-mix")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&cfg.mdserver, "mdserver", "", "path to a built cmd/mdserver (serve-mix)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for data dirs and trace files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, errors.New("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// printReport writes the human table and then the result line.
func printReport(w io.Writer, rep *report) error {
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := make(map[string]jsonMetric, len(rep.metrics))
	sorted := append([]metric(nil), rep.metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", m.name, m.value, m.unit)
		byName[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "  %-34s %16.6f 1   (%d failed of %d attempted, %d wrong results)\n",
		"failed_frac", failedFrac, rep.failed, rep.attempted, rep.wrong)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.wrong == 0, rep.attempted, rep.failed, byName})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
