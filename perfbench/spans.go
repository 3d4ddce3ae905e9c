package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mdtask/internal/obs"
)

// spanNames are the program's existing spans whose self time the traced
// run reports as span.<name>_self_ms (mean per job). A span a workload
// never records reports 0.
var spanNames = []string{"job", "queue.wait", "run", "engine.dask", "psa.block", "leaflet.tile", "cache.do"}

// span is one finished span of a trace, in nanoseconds.
type span struct {
	id, parent, name string
	start, end       float64
}

// selfTimes adds each span's self time — its duration minus the part of
// it covered by its children — to acc under the span's name, in ns.
func selfTimes(spans []span, acc map[string]float64) {
	children := make(map[string][]span)
	for _, s := range spans {
		if s.parent != "" {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, reach := 0.0, s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		acc[s.name] += (s.end - s.start) - covered
	}
}

// fromWire converts the tracer's in-memory spans.
func fromWire(ws []obs.WireSpan) []span {
	out := make([]span, len(ws))
	for i, w := range ws {
		out[i] = span{id: w.Span, parent: w.Parent, name: w.Name,
			start: float64(w.Start), end: float64(w.Start + w.Dur)}
	}
	return out
}

// fromChrome parses the Chrome trace_event JSON mdserver serves at
// GET /v1/jobs/{id}/trace.
func fromChrome(b []byte) ([]span, error) {
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	var out []span
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id, _ := e.Args["span_id"].(string)
		parent, _ := e.Args["parent_id"].(string)
		out = append(out, span{id: id, parent: parent, name: e.Name,
			start: e.Ts * 1e3, end: (e.Ts + e.Dur) * 1e3})
	}
	return out, nil
}

// setSpans sets span.<name>_self_ms to the mean self time per traced
// job.
func (l layers) setSpans(acc map[string]float64, jobs int) {
	if jobs == 0 {
		return
	}
	for _, n := range spanNames {
		l["span."+n+"_self_ms"] = acc[n] / float64(jobs) / 1e6
	}
}

// writeTrace keeps the last traced job's spans as Chrome trace JSON in
// <workdir>/traces for inspection: spans stay in memory during the run
// and are written once it ends.
func writeTrace(cfg config, chrome []byte) {
	if len(chrome) == 0 {
		return
	}
	dir := filepath.Join(cfg.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)
		_ = os.WriteFile(filepath.Join(dir, name), chrome, 0o644) // best effort: an inspection aid only
	}
}
