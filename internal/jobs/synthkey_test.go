package jobs

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// hitPathSpec is the 6 × 3341 × 12 PSA spec whose input takes about
// 5.8 MB to generate and hash.
func hitPathSpec() Spec {
	return Spec{Analysis: AnalysisPSA, Engine: EngineSerial,
		Synth: &SynthSpec{Count: 6, Atoms: 3341, Frames: 12, Seed: 3}}
}

// stubRegistry registers psa/serial and leaflet/serial runners that
// return an empty result at once and count the runs that received a
// resolved input.
func stubRegistry(runs *atomic.Int64) *Registry {
	reg := NewRegistry()
	run := func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
		if in != nil {
			runs.Add(1)
		}
		return &Result{}, nil
	}
	must(reg.Register(RunnerName(AnalysisPSA, EngineSerial), run))
	must(reg.Register(RunnerName(AnalysisLeaflet, EngineSerial), run))
	return reg
}

func mustKey(t *testing.T, spec Spec) string {
	t.Helper()
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return CacheKey(norm, synthInputKey(norm))
}

// A whole-job hit of a synth spec is answered from the spec: it
// allocates nothing like the input it would otherwise generate and
// hash, and it still makes exactly one block-store lookup.
func TestSynthHitSkipsInputWork(t *testing.T) {
	var runs atomic.Int64
	s := NewScheduler(stubRegistry(&runs), Options{Workers: 1})
	defer s.Close()
	first, err := s.Submit(hitPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, first); st.State != StateDone || st.CacheHit {
		t.Fatalf("first submission: %+v", st)
	}
	if runs.Load() != 1 {
		t.Fatalf("miss ran %d times with a resolved input, want 1", runs.Load())
	}
	before := s.store.Stats()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	second, err := s.Submit(hitPathSpec())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Status(); st.State != StateDone || !st.CacheHit {
		t.Fatalf("identical resubmission not a cache hit: %+v", st)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("cache-hit Submit allocated %d bytes, want < 1 MiB (no input generated or hashed)", alloc)
	}
	if second.input != nil {
		t.Error("cache hit holds a resolved input")
	}
	after := s.store.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 0 {
		t.Errorf("hit made %d hits and %d misses, want exactly one lookup (a hit)", hits, misses)
	}
	if st := second.Status(); st.TasksTotal != first.Status().TasksTotal || st.TasksTotal == 0 {
		t.Errorf("hit plans %d tasks, miss planned %d", st.TasksTotal, first.Status().TasksTotal)
	}
	if m := s.Metrics(); m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache accounting: hits %d misses %d, want 1/1", m.CacheHits, m.CacheMisses)
	}
}

// A paper preset and its explicit dimensions describe the same input:
// they share a key and answer each other's resubmissions.
func TestSynthPresetSharesKey(t *testing.T) {
	preset := Spec{Analysis: AnalysisPSA, Engine: EngineSerial,
		Synth: &SynthSpec{Preset: "small", Count: 2, Seed: 5}}
	explicit := Spec{Analysis: AnalysisPSA, Engine: EngineSerial,
		Synth: &SynthSpec{Count: 2, Atoms: 3341, Frames: 102, Seed: 5}}
	if mustKey(t, preset) != mustKey(t, explicit) {
		t.Fatal("preset and explicit dimensions key differently")
	}
	var runs atomic.Int64
	s := NewScheduler(stubRegistry(&runs), Options{Workers: 1})
	defer s.Close()
	first, err := s.Submit(preset)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	second, err := s.Submit(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Status(); !st.CacheHit {
		t.Errorf("explicit dimensions missed the preset's entry: %+v", st)
	}
}

// Every field the generated input depends on is in the key.
func TestSynthKeyDiscriminates(t *testing.T) {
	for _, base := range []Spec{validPSASpec(), validLeafletSpec()} {
		key := mustKey(t, base)
		mutate := map[string]func(*SynthSpec){
			"atoms": func(g *SynthSpec) { g.Atoms++ },
			"seed":  func(g *SynthSpec) { g.Seed++ },
		}
		if base.Analysis == AnalysisPSA {
			mutate["count"] = func(g *SynthSpec) { g.Count++ }
			mutate["frames"] = func(g *SynthSpec) { g.Frames++ }
		}
		for name, m := range mutate {
			sp := base
			g := *base.Synth
			m(&g)
			sp.Synth = &g
			if mustKey(t, sp) == key {
				t.Errorf("%s: key ignores %s", base.Analysis, name)
			}
		}
	}
	// A membrane has no trajectory count or frame count: Normalized
	// drops them, so they cannot split the key of one bilayer.
	leaf := validLeafletSpec()
	g := *leaf.Synth
	g.Count, g.Frames = 5, 7
	other := leaf
	other.Synth = &g
	if mustKey(t, other) != mustKey(t, leaf) {
		t.Error("leaflet key varies with count/frames, which the bilayer ignores")
	}
	// The same generator fields under the other analysis are another input.
	psa, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	asLeaflet := psa
	asLeaflet.Analysis = AnalysisLeaflet
	if synthInputKey(psa) == synthInputKey(asLeaflet) {
		t.Error("synth key ignores the analysis")
	}
}

// A synth hit journals a done record under the spec-derived key, and
// that record replays cleanly into a fresh scheduler.
func TestSynthHitJournalsAndRecovers(t *testing.T) {
	spec := validPSASpec()
	spec.Engine = EngineSerial
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	var runs atomic.Int64
	s := NewScheduler(stubRegistry(&runs), Options{Workers: 1, Journal: st})
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	hit, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Status().CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	s.Close()
	st.Close()

	want := mustKey(t, spec)
	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec.Jobs))
	}
	for _, r := range rec.Jobs {
		if r.State != StateDone || r.Key != want {
			t.Errorf("record %s: state %s key %s, want done %s", r.ID, r.State, r.Key, want)
		}
	}
	s2 := NewScheduler(stubRegistry(&runs), Options{Workers: 1, Journal: st2})
	defer s2.Close()
	s2.Recover(rec.Jobs)
	job, ok := s2.Get(hit.ID())
	if !ok {
		t.Fatalf("hit job %s lost in recovery", hit.ID())
	}
	if job.key != want || job.Status().State != StateDone {
		t.Errorf("recovered hit: key %s state %s, want %s done", job.key, job.Status().State, want)
	}
}

// Submit releases s.mu to generate a missed synth input and re-takes it
// before admitting the job. Under -race, a storm of identical and
// distinct submissions racing Close must leave every call with either
// an admitted job or ErrClosed / ErrQueueFull, and no admitted job may
// be left running once Close returns.
func TestSynthSubmitRacesClose(t *testing.T) {
	var runs atomic.Int64
	s := NewScheduler(stubRegistry(&runs), Options{Workers: 2, QueueDepth: 4})
	var submitters sync.WaitGroup
	var mu sync.Mutex
	var admitted []*Job
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i := 0; i < 20; i++ {
				spec := validPSASpec()
				spec.Engine = EngineSerial
				spec.Synth.Seed = uint64(i % (g + 2))
				job, err := s.Submit(spec)
				switch {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, job)
					mu.Unlock()
				case errors.Is(err, ErrClosed), errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}(g)
	}
	// Close once a few jobs are in, or once every submitter is done.
	done := make(chan struct{})
	go func() {
		submitters.Wait()
		close(done)
	}()
	for closing := false; !closing; {
		mu.Lock()
		closing = len(admitted) >= 10
		mu.Unlock()
		select {
		case <-done:
			closing = true
		default:
			runtime.Gosched()
		}
	}
	s.Close()
	<-done
	for _, job := range admitted {
		if st := job.Status(); st.State == StateRunning {
			t.Errorf("job %s still running after Close", job.ID())
		}
	}
}

// A path input keeps its content-digest key, so a resubmission is still
// a hit (one lookup, no retained input), and it does not share the
// whole-job entry of a synth spec generating the same coordinates.
func TestPathHitKeepsContentKey(t *testing.T) {
	spec := validPSASpec()
	spec.Engine = EngineSerial
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g := norm.Synth
	for i := 0; i < g.Count; i++ {
		tr := synth.Walk(fmt.Sprintf("synth-%03d", i), g.Atoms, g.Frames, g.Seed, uint64(i))
		if err := traj.WriteMDTFile(filepath.Join(dir, fmt.Sprintf("t%03d.mdt", i)), tr, 8); err != nil {
			t.Fatal(err)
		}
	}
	pathSpec := Spec{Analysis: AnalysisPSA, Engine: EngineSerial, Path: dir}

	var runs atomic.Int64
	s := NewScheduler(stubRegistry(&runs), Options{Workers: 1})
	defer s.Close()
	first, err := s.Submit(pathSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	before := s.store.Stats()
	hit, err := s.Submit(pathSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Status().CacheHit {
		t.Fatal("path resubmission was not a cache hit")
	}
	after := s.store.Stats()
	if after.Hits-before.Hits != 1 || after.Misses != before.Misses {
		t.Error("path hit did not make exactly one lookup")
	}
	if hit.input != nil {
		t.Error("path cache hit holds its resolved input")
	}
	in, err := ResolveInput(norm)
	if err != nil {
		t.Fatal(err)
	}
	pathNorm, err := pathSpec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if want := CacheKey(pathNorm, digestOf(t, in)); hit.key != want {
		t.Errorf("path key %s, want the content-digest key %s", hit.key, want)
	}
	synthJob, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if synthJob.Status().CacheHit {
		t.Error("synth spec hit the whole-job entry of a path input")
	}
	waitTerminal(t, synthJob)
}
