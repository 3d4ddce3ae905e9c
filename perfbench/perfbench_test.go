package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// workCounters are the per-layer metrics that count work rather than
// time it. At one seed they must repeat exactly from run to run.
// (jobs.result_bytes is left out: a Leaflet result carries its run's
// shuffle statistics, which vary by a few bytes.)
var workCounters = []string{
	"hausdorff.pairs_evaluated", "hausdorff.pairs_pruned", "hausdorff.pairs_abandoned",
	"hausdorff.nodes_visited", "hausdorff.eval_frac",
	"engine.tasks_per_job", "psa.blocks", "linalg.atom_terms",
	"leaflet.tiles", "leaflet.edges",
	"blockstore.hit_ratio", "blockstore.bytes_saved_per_job",
	"wal.appends_per_job", "wal.fsyncs_per_job",
	"jobs.whole_hit_frac",
}

// raceDetector is set when the tests run under -race.
var raceDetector bool

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// buildServer builds cmd/mdserver for the serve-mix runs.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mdserver")
	out, err := exec.Command("go", "build", "-o", bin, "mdtask/cmd/mdserver").CombinedOutput()
	if err != nil {
		t.Fatalf("building mdserver: %v\n%s", err, out)
	}
	return bin
}

// runBench runs one workload in-process and decodes its result line.
func runBench(t *testing.T, server, workload, seed, seconds, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", seconds, "-trace", trace,
		"-mdserver", server, "-workdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s seed %s: exit %d\n%s\n%s", workload, seed, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s seed %s: correct=%v failed=%d attempted=%d\n%s", workload, seed, r.Correct, r.Failed, r.Attempted, stdout.String())
	}
	return r
}

func names(r result) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestWorkCountersRepeat runs every workload's traced run twice at one
// seed and once at a held-out seed: the work counters must repeat
// exactly, and the held-out seed must verify and print the same names.
func TestWorkCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	server := buildServer(t)
	for _, w := range []string{"psa-atoms", "psa-frames", "leaflet-membrane", "serve-mix"} {
		t.Run(w, func(t *testing.T) {
			a := runBench(t, server, w, "7", "2", "1")
			b := runBench(t, server, w, "7", "2", "1")
			for _, c := range workCounters {
				va, vb := a.Metrics[c].Value, b.Metrics[c].Value
				if va != vb {
					t.Errorf("%s: %v then %v at the same seed", c, va, vb)
				}
			}
			held := runBench(t, server, w, "1234567", "2", "1")
			if got, want := strings.Join(names(held), ","), strings.Join(names(a), ","); got != want {
				t.Errorf("held-out seed metric names differ:\n got %s\nwant %s", got, want)
			}
			if len(a.Metrics) != len(layerMetrics) {
				t.Errorf("traced run printed %d metrics, want all %d per-layer metrics", len(a.Metrics), len(layerMetrics))
			}
		})
	}
}

// TestEndToEndNames checks a held-out seed's untraced run prints exactly
// the end-to-end metric set, every value above zero.
func TestEndToEndNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload for several seconds")
	}
	if raceDetector {
		t.Skip("under -race a short run completes too few jobs to report a tail")
	}
	r := runBench(t, "", "psa-frames", "98765", "10", "0")
	want := "cpu_ms_per_job,job_p50_ms,job_tail_ms,jobs_per_s,peak_rss_mb,setup_s"
	if got := strings.Join(names(r), ","); got != want {
		t.Fatalf("end-to-end metrics: got %s, want %s", got, want)
	}
	for n, m := range r.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, m.Value)
		}
	}
}

func TestTailRefusesThinSamples(t *testing.T) {
	xs := make([]float64, 39)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, _, _, err := tail(xs, 95); err == nil {
		t.Fatal("39 samples leave fewer than 10 beyond p75; want a refusal")
	}
	xs = append(xs, 39)
	v, p, beyond, err := tail(xs, 95)
	if err != nil || p != 75 || beyond != 10 || v != 29 {
		t.Fatalf("40 samples: got p%g=%v with %d beyond (err %v), want p75=29 with 10 beyond", p, v, beyond, err)
	}
	many := make([]float64, 1000)
	if _, p, _, _ := tail(many, 90); p != 90 {
		t.Fatalf("nominal p90 with 1000 samples reported p%g; the nominal rung caps it", p)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	// Overlapping children count once; a child running past its parent
	// counts only inside it.
	spans := []span{
		{id: "p", name: "parent", start: 0, end: 10},
		{id: "a", parent: "p", name: "child", start: 1, end: 4},
		{id: "b", parent: "p", name: "child", start: 3, end: 6},
		{id: "c", parent: "p", name: "child", start: 8, end: 12},
	}
	acc := map[string]float64{}
	selfTimes(spans, acc)
	if acc["parent"] != 3 || acc["child"] != 10 {
		t.Fatalf("self times %v, want parent 3 and child 10", acc)
	}
}

func TestSteadyDiscardsThenRefusesDriftingPhases(t *testing.T) {
	var rep report
	now := time.Now()
	calm := probeResult{first: 2, second: 2.2, n: 100}
	if ok, err := steady(&rep, 1, calm, now, 20*time.Second); !ok || err != nil {
		t.Fatalf("drift %.2f: got keep=%v err=%v, want the phase kept", calm.drift(), ok, err)
	}
	drifted := probeResult{first: 2.6, second: 2, n: 100}
	if ok, err := steady(&rep, 1, drifted, now, 20*time.Second); ok || err != nil {
		t.Fatalf("drift %.2f with time left: got keep=%v err=%v, want a retry", drifted.drift(), ok, err)
	}
	if _, err := steady(&rep, 4, drifted, now.Add(-140*time.Second), 20*time.Second); err == nil {
		t.Fatal("a drifting phase with no time left for another must refuse the run")
	}
}
