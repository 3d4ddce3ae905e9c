package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"mdtask/internal/jobs"
	"mdtask/internal/loadgen"
)

// maxTracesFetched bounds the traces pulled after the traced phase;
// mdserver keeps the 256 most recent.
const maxTracesFetched = 200

// tracedServeMix is serve-mix's per-layer run: half the time against a
// server with tracing off (client-side layer timings, job status
// timestamps and metrics, /metrics deltas), half against a fresh server
// with tracing on (span self times from GET /v1/jobs/{id}/trace, trace
// overhead), then single-threaded replays of the mix's inputs.
func tracedServeMix(cfg config, d time.Duration, rep *report) error {
	l := layers{}
	rounds := mixRounds((cfg.seconds + 1) / 2)
	env, err := setupServeMix(cfg, filepath.Join(cfg.workdir, "serve-untraced"), rounds, false)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	before, err := env.srv.settledProm()
	if err != nil {
		env.stop()
		return err
	}
	results, _, _, _, err := timedMix(env, d/2)
	if err != nil {
		env.stop()
		return err
	}
	after, err := env.srv.settledProm()
	env.stop()
	if err != nil {
		return err
	}
	verifyMix(env, results, rep)
	ok := succeeded(results)
	if len(ok) == 0 {
		return nil
	}
	setMixLayers(l, ok, before, after)
	plan := env.plan

	env, err = setupServeMix(cfg, filepath.Join(cfg.workdir, "serve-traced"), rounds, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	tresults, _, _, _, err := timedMix(env, d/2)
	if err != nil {
		env.stop()
		return err
	}
	acc := map[string]float64{}
	tok := succeeded(tresults)
	fetched := 0
	var last []byte
	for i := len(tok) - 1; i >= 0 && fetched < maxTracesFetched; i-- {
		b, code, err := env.srv.get("/v1/jobs/" + tok[i].status.ID + "/trace")
		if err != nil || code != http.StatusOK {
			continue // evicted: the server bounds the traces it keeps
		}
		spans, err := fromChrome(b)
		if err != nil {
			env.stop()
			return err
		}
		selfTimes(spans, acc)
		if last == nil {
			last = b
		}
		fetched++
	}
	env.stop()
	verifyMix(env, tresults, rep)
	l.setSpans(acc, fetched)
	writeTrace(cfg, last)
	if len(tok) > 0 {
		l["obs.trace_overhead_pct"] = (median(e2es(tok))/median(e2es(ok)) - 1) * 100
	}
	return replayMix(l, plan, rep)
}

// settledProm scrapes /metrics until two scrapes 50 ms apart agree on
// the journal counters. A job reads as done before its last journal
// record is appended, so a scrape right after the last job completes
// could miss that append and make wal.*_per_job differ between runs.
func (s *mdserver) settledProm() (loadgen.PromMetrics, error) {
	prev, err := s.prom()
	for i := 0; i < 40 && err == nil; i++ {
		time.Sleep(50 * time.Millisecond)
		cur, err := s.prom()
		if err != nil {
			return nil, err
		}
		a1, _ := prev.Value("mdtask_wal_appends_total")
		a2, _ := cur.Value("mdtask_wal_appends_total")
		s1, _ := prev.Value("mdtask_wal_fsyncs_total")
		s2, _ := cur.Value("mdtask_wal_fsyncs_total")
		if a1 == a2 && s1 == s2 {
			return cur, nil
		}
		prev = cur
	}
	return prev, err
}

func succeeded(rs []mixResult) []mixResult {
	var out []mixResult
	for _, r := range rs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func e2es(rs []mixResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.e2e)
	}
	return out
}

// setMixLayers fills the serving layers from the client's timings, the
// servers' job statuses and the /metrics deltas of one timed phase.
func setMixLayers(l layers, rs []mixResult, before, after loadgen.PromMetrics) {
	n := float64(len(rs))
	submit := map[mixClass][]float64{}
	classLat := map[mixClass][]float64{}
	var queue, exec, result, bytes, e2e []float64
	var hits, blockHits, blockLookups, saved float64
	snaps := make([]jobs.MetricsSnapshot, 0, len(rs))
	for _, r := range rs {
		submit[r.job.class] = append(submit[r.job.class], ms(r.submit))
		classLat[r.job.class] = append(classLat[r.job.class], ms(r.e2e))
		e2e = append(e2e, ms(r.e2e))
		result = append(result, ms(r.result))
		bytes = append(bytes, float64(len(r.body)))
		st := r.status
		q, x := 0.0, 0.0
		if st.CacheHit {
			hits++
		} else if st.Started != nil && st.Finished != nil {
			q, x = ms(st.Started.Sub(st.Created)), ms(st.Finished.Sub(*st.Started))
		}
		queue = append(queue, q)
		exec = append(exec, x)
		blockHits += float64(st.Metrics.BlockCacheHits)
		blockLookups += float64(st.Metrics.BlockCacheHits + st.Metrics.BlockCacheMisses)
		saved += float64(st.Metrics.BlockCacheBytesSaved)
		snaps = append(snaps, st.Metrics)
	}
	for _, c := range []mixClass{classCold, classDelta, classHit} {
		l["jobs.submit_ms."+string(c)] = mean(submit[c])
	}
	// Queue wait and execution are means over every job (a whole-job hit
	// neither waits nor runs), so the four parts add up to the mean
	// end-to-end latency less what no layer accounts for.
	l["jobs.queue_wait_ms"] = mean(queue)
	l["jobs.exec_ms"] = mean(exec)
	l["jobs.result_ms"] = mean(result)
	l["jobs.result_bytes"] = mean(bytes)
	var allSubmit []float64
	for _, xs := range submit {
		allSubmit = append(allSubmit, xs...)
	}
	l["jobs.unattributed_ms"] = mean(e2e) - mean(allSubmit) - mean(queue) - mean(exec) - mean(result)
	l["jobs.whole_hit_frac"] = hits / n
	// Each class's median latency, so a change to one class shows
	// whatever the class shares make of job_p50_ms and job_tail_ms.
	for _, c := range []mixClass{classHit, classCold, classDelta, classLeaflet} {
		l["jobs."+string(c)+"_p50_ms"] = median(classLat[c])
	}
	if blockLookups > 0 {
		l["blockstore.hit_ratio"] = blockHits / blockLookups
	}
	l["blockstore.bytes_saved_per_job"] = saved / n
	if v, ok := loadgen.Delta(before, after, "mdtask_wal_appends_total"); ok {
		l["wal.appends_per_job"] = v / n
	}
	if v, ok := loadgen.Delta(before, after, "mdtask_wal_fsyncs_total"); ok {
		l["wal.fsyncs_per_job"] = v / n
	}
	setSnapshotLayers(l, snaps)
}

// replayMix times jobs.Resolve and ContentDigest on one round of the
// mix's specs, and replays the PSA kernels of the hit pool and the
// Leaflet kernels of the round's first membrane.
func replayMix(l layers, plan mixPlan, rep *report) error {
	var resolve, digest []float64
	var psaSpecs, leafSpecs []jobs.Spec
	var psaIns, leafIns []*jobs.Input
	for _, j := range plan.jobs[:mixRoundSize] {
		t0 := time.Now()
		norm, in, err := jobs.Resolve(j.spec)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := in.ContentDigest(); err != nil {
			return err
		}
		resolve = append(resolve, ms(t1.Sub(t0)))
		digest = append(digest, ms(time.Since(t1)))
		if j.class == classLeaflet && len(leafSpecs) == 0 {
			leafSpecs, leafIns = append(leafSpecs, norm), append(leafIns, in)
		}
	}
	for _, spec := range plan.hits {
		norm, in, err := jobs.Resolve(spec)
		if err != nil {
			return err
		}
		psaSpecs, psaIns = append(psaSpecs, norm), append(psaIns, in)
	}
	l["jobs.resolve_ms"] = mean(resolve)
	l["traj.digest_ms"] = mean(digest)
	pr, err := replayPSA(psaSpecs, psaIns)
	if err != nil {
		return err
	}
	lr, err := replayLeaflet(leafSpecs, leafIns)
	if err != nil {
		return err
	}
	pr.set(l)
	lr.set(l)
	l["linalg.atom_terms"] = l["hausdorff.pairs_evaluated"] * float64(pr.atoms)
	l.emit(rep)
	return nil
}
