package jobs

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/dask"
	"mdtask/internal/engine"
	"mdtask/internal/fleet"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/obs"
	"mdtask/internal/pilot"
	"mdtask/internal/psa"
	"mdtask/internal/rdd"
	"mdtask/internal/traj"
)

// ErrCancelled is returned by runners whose job was cooperatively
// cancelled mid-run; the scheduler maps it to StateCancelled.
var ErrCancelled = errors.New("jobs: job cancelled")

// RunContext is the per-run handle a Runner receives: a cooperative
// cancellation flag polled at block boundaries, the live metrics sink
// of whatever engine the runner brought up (so a running job's status
// can report progress), and the content-addressed block store the run
// consults (nil on the uncached one-shot path).
type RunContext struct {
	cancelled atomic.Bool
	live      atomic.Pointer[engine.Metrics]
	store     atomic.Pointer[blockstore.Store]

	// Observability of the run, set by the owner before the runner
	// starts (the scheduler points obs at its shared bundle and span at
	// the job's run span; the one-shot CLI path leaves both zero, which
	// disables tracing). Plain fields: every handoff to the running
	// goroutine is ordered by the scheduler's queue mutex.
	obs  *obs.Obs
	span obs.SpanContext
}

// NewRunContext returns a context with a fresh metrics sink.
func NewRunContext() *RunContext {
	rc := &RunContext{}
	rc.live.Store(&engine.Metrics{})
	return rc
}

// Cancel requests cooperative cancellation.
func (rc *RunContext) Cancel() { rc.cancelled.Store(true) }

// Cancelled reports whether cancellation was requested. Runners (and
// the engine task bodies they configure) poll it at block boundaries.
func (rc *RunContext) Cancelled() bool { return rc.cancelled.Load() }

// Metrics returns the current live metrics sink.
func (rc *RunContext) Metrics() *engine.Metrics { return rc.live.Load() }

// SetMetrics publishes an engine-owned sink (an rdd Context's or dask
// Client's) as the run's live metrics.
func (rc *RunContext) SetMetrics(m *engine.Metrics) {
	if m != nil {
		rc.live.Store(m)
	}
}

// SetBlockStore attaches the content-addressed block store the run's
// engines consult and record into (the scheduler sets its own at
// submission; nil leaves the run uncached).
func (rc *RunContext) SetBlockStore(s *blockstore.Store) {
	if s != nil {
		rc.store.Store(s)
	}
}

// BlockStore returns the run's block store, or nil when uncached.
func (rc *RunContext) BlockStore() *blockstore.Store { return rc.store.Load() }

// SetObs attaches the run's observability bundle and the span context
// engine-level spans parent under. Must be called before the runner
// starts; nil o leaves tracing disabled.
func (rc *RunContext) SetObs(o *obs.Obs, parent obs.SpanContext) {
	rc.obs = o
	rc.span = parent
}

// Obs returns the run's observability bundle, or nil.
func (rc *RunContext) Obs() *obs.Obs { return rc.obs }

// Tracer returns the run's tracer (nil when tracing is disabled —
// every method of a nil tracer no-ops).
func (rc *RunContext) Tracer() *obs.Tracer {
	if rc.obs == nil {
		return nil
	}
	return rc.obs.Tracer
}

// TraceParent returns the span context engine spans parent under
// (zero when tracing is disabled).
func (rc *RunContext) TraceParent() obs.SpanContext { return rc.span }

// Runner executes one analysis job over already-resolved input and
// returns its result. Runners must poll rc for cancellation and leave
// engine accounting reachable through rc.Metrics().
type Runner func(rc *RunContext, spec Spec, in *Input) (*Result, error)

// Registry maps runner names (RunnerName(analysis, engine)) to runners.
// It replaces the hand-rolled engine-dispatch switches the CLIs used to
// carry, and is the extension point for new analyses or engines.
type Registry struct {
	mu      sync.RWMutex
	runners map[string]Runner
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{runners: make(map[string]Runner)}
}

// Register adds a named runner; registering a nil runner or a duplicate
// name is an error.
func (r *Registry) Register(name string, fn Runner) error {
	if fn == nil {
		return fmt.Errorf("jobs: nil runner %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.runners[name]; dup {
		return fmt.Errorf("jobs: duplicate runner %q", name)
	}
	r.runners[name] = fn
	return nil
}

// Lookup returns the runner registered under name.
func (r *Registry) Lookup(name string) (Runner, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.runners[name]
	return fn, ok
}

// Names lists the registered runner names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.runners))
	for name := range r.runners {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry returns a registry with both analyses registered on
// all six engines. Fleet jobs boot an ephemeral in-process fleet each —
// the CLI one-shot behaviour; servers embedding a shared coordinator
// use RegistryWithFleet.
func DefaultRegistry() *Registry {
	return RegistryWithFleet(nil)
}

// RegistryWithFleet returns the default registry with the fleet
// runners bound to coordinator c, so fleet jobs fan out over whatever
// workers are registered with c (cmd/mdserver passes its embedded
// coordinator). A nil c makes every fleet job boot an ephemeral
// loopback fleet sized by its spec's parallelism instead.
func RegistryWithFleet(c *fleet.Coordinator) *Registry {
	r := NewRegistry()
	for _, eng := range Engines {
		if eng == EngineFleet {
			continue
		}
		must(r.Register(RunnerName(AnalysisPSA, eng), psaRunner(eng)))
		must(r.Register(RunnerName(AnalysisLeaflet, eng), leafletRunner(eng)))
	}
	must(r.Register(RunnerName(AnalysisPSA, EngineFleet), psaFleetRunner(c)))
	must(r.Register(RunnerName(AnalysisLeaflet, EngineFleet), leafletFleetRunner(c)))
	return r
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ranks resolves the process count of the distributed-memory engines.
func (s Spec) ranks() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return 4
}

// groupSize resolves PSA's block edge length n1 for an N-trajectory
// ensemble ("one task per core" unless Tasks overrides).
func (s Spec) groupSize(n int) int {
	wantTasks := s.Tasks
	if wantTasks <= 0 {
		wantTasks = s.ranks()
	}
	return psa.DefaultGroupSize(n, wantTasks)
}

// hausdorffMethod maps a normalized method name to the kernel.
func (s Spec) hausdorffMethod() hausdorff.Method {
	m, err := hausdorff.ParseMethod(s.Method)
	if err != nil {
		return hausdorff.Naive
	}
	return m
}

// PlannedTasks estimates how many engine tasks a job will run, for
// progress reporting (0: unknown). in may be nil for a synth spec,
// which states its input's size itself.
func PlannedTasks(spec Spec, in *Input) int {
	var n int // trajectories (PSA) or atoms (Leaflet Finder)
	switch {
	case in != nil && spec.Analysis == AnalysisPSA:
		n = len(in.Refs)
	case in != nil:
		n = len(in.Coords)
	case spec.Synth != nil && spec.Analysis == AnalysisPSA:
		n = spec.Synth.Count
	case spec.Synth != nil:
		n = spec.Synth.Atoms
	default:
		return 0
	}
	switch spec.Analysis {
	case AnalysisPSA:
		blocks, err := psa.Partition(n, spec.groupSize(n), !spec.FullMatrix)
		if err != nil {
			return 0
		}
		return len(blocks)
	case AnalysisLeaflet:
		if spec.Engine == EngineSerial {
			return 1 // the serial runner is one task, whatever the plan says
		}
		if spec.Engine == EngineFleet {
			// The fleet runs every approach over the 2-D tiling.
			return len(leaflet.Plan2D(n, spec.Tasks))
		}
		if spec.Approach == "broadcast" {
			parts := spec.Tasks
			if spec.Engine == EngineMPI {
				parts = spec.ranks()
			}
			lens, _ := leaflet.Plan1D(n, parts)
			return len(lens)
		}
		return len(leaflet.Plan2D(n, spec.Tasks))
	}
	return 0
}

// psaRunner builds the PSA runner for one engine.
func psaRunner(engineName string) Runner {
	return func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
		refs := in.Refs
		// The engine stage span covers scheduling plus every block task;
		// per-block psa.block spans (and their cache.do children) nest
		// under it through opts.
		engSpan := rc.Tracer().StartChild(rc.TraceParent(), "engine."+engineName)
		defer engSpan.End()
		opts := psa.Opts{
			Symmetric:         !spec.FullMatrix,
			Method:            spec.hausdorffMethod(),
			Cancel:            rc.Cancelled,
			MaxResidentFrames: spec.MaxResidentFrames,
			Tracer:            rc.Tracer(),
			TraceParent:       engSpan.Context(),
			// Every task body consults the run's block store (nil on the
			// uncached one-shot path), so blocks shared with earlier jobs
			// skip their kernels whatever the engine.
			Cache: rc.BlockStore(),
		}
		if o := rc.Obs(); o != nil {
			opts.KernelHist = o.Metrics.Histogram("mdtask_block_kernel_seconds",
				"Wall time of block kernels (PSA blocks and Leaflet tiles).", nil)
		}
		if opts.Method == hausdorff.Pruned && opts.MaxResidentFrames == 0 {
			// Build the packed representation (contiguous frames +
			// per-frame pruning statistics) once up front, O(F·N) per
			// trajectory, so no timed kernel task pays for it. Runs after
			// the cache lookup: a cache hit never packs. The streamed
			// kernel packs windows on the fly instead, so it skips this.
			for _, t := range in.Ens {
				t.Packed()
			}
		}
		n1 := spec.groupSize(len(refs))
		var (
			mat *psa.Matrix
			err error
		)
		// Every engine records the kernel's frame-pair counters through
		// opts.Metrics into the sink its tasks already account to.
		switch engineName {
		case EngineSerial:
			opts.Metrics = rc.Metrics()
			mat, err = runPSASerial(rc, refs, n1, opts)
		case EngineSpark:
			ctx := rdd.NewContext(spec.Parallelism)
			rc.SetMetrics(ctx.Metrics)
			opts.Metrics = ctx.Metrics
			mat, err = psa.RunRDDRefs(ctx, refs, n1, opts)
		case EngineDask:
			client := dask.NewClient(spec.Parallelism)
			rc.SetMetrics(client.Metrics)
			opts.Metrics = client.Metrics
			mat, err = psa.RunDaskRefs(client, refs, n1, opts)
		case EngineMPI:
			opts.Metrics = rc.Metrics()
			mat, err = psa.RunMPIRefs(spec.ranks(), refs, n1, opts)
		case EnginePilot:
			p, cleanup, perr := startPilot(spec.ranks(), rc.Metrics())
			if perr != nil {
				return nil, perr
			}
			defer cleanup()
			opts.Metrics = rc.Metrics()
			mat, err = psa.RunPilotRefs(p, refs, n1, opts)
		default:
			return nil, fmt.Errorf("jobs: unknown engine %q", engineName)
		}
		if err != nil {
			return nil, err
		}
		if rc.Cancelled() {
			return nil, ErrCancelled
		}
		return &Result{Matrix: mat}, nil
	}
}

// runPSASerial runs the block schedule sequentially on one goroutine,
// recording one engine task per block so progress reporting and the
// metrics surface match the parallel engines.
func runPSASerial(rc *RunContext, refs traj.RefEnsemble, n1 int, opts psa.Opts) (*psa.Matrix, error) {
	blocks, err := psa.Partition(len(refs), n1, opts.Symmetric)
	if err != nil {
		return nil, err
	}
	m := rc.Metrics()
	results := make([]psa.BlockResult, 0, len(blocks))
	for _, b := range blocks {
		if rc.Cancelled() {
			return nil, ErrCancelled
		}
		start := time.Now()
		br, err := psa.ComputeBlockRefs(refs, b, opts)
		if err != nil {
			return nil, err
		}
		results = append(results, br)
		m.RecordTask(time.Since(start))
	}
	m.RecordStage()
	return psa.Assemble(len(refs), results), nil
}

// leafletRunner builds the Leaflet Finder runner for one engine.
func leafletRunner(engineName string) Runner {
	return func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
		approach, _, err := ParseApproach(spec.Approach)
		if err != nil {
			return nil, err
		}
		coords, cutoff, tasks := in.Coords, spec.Cutoff, spec.Tasks
		engSpan := rc.Tracer().StartChild(rc.TraceParent(), "engine."+engineName)
		defer engSpan.End()
		cancel := leaflet.WithCancel(rc.Cancelled)
		// tileOpts wires the run's block store into the tile-parallel
		// drivers, keyed under the input's content digest, with cache
		// accounting routed to the engine sink m. The serial and pilot
		// paths have no per-tile unit and rely on whole-job entries.
		tileOpts := func(m *engine.Metrics) []leaflet.Option {
			out := []leaflet.Option{cancel, leaflet.WithTrace(rc.Tracer(), engSpan.Context())}
			if store := rc.BlockStore(); store != nil {
				if digest, derr := in.ContentDigest(); derr == nil {
					out = append(out, leaflet.WithBlockCache(store, digest, m))
				}
			}
			return out
		}
		var res *leaflet.Result
		switch engineName {
		case EngineSerial:
			start := time.Now()
			res = leaflet.Serial(coords, cutoff, cancel)
			rc.Metrics().RecordTask(time.Since(start))
			rc.Metrics().RecordStage()
		case EngineSpark:
			ctx := rdd.NewContext(spec.Parallelism)
			rc.SetMetrics(ctx.Metrics)
			res, err = leaflet.RunRDD(ctx, approach, coords, cutoff, tasks, tileOpts(ctx.Metrics)...)
		case EngineDask:
			client := dask.NewClient(spec.Parallelism)
			rc.SetMetrics(client.Metrics)
			res, err = leaflet.RunDask(client, approach, coords, cutoff, tasks, tileOpts(client.Metrics)...)
		case EngineMPI:
			res, err = leaflet.RunMPI(spec.ranks(), approach, coords, cutoff, tasks,
				append(tileOpts(rc.Metrics()), leaflet.WithMetrics(rc.Metrics()))...)
		case EnginePilot:
			p, cleanup, perr := startPilot(spec.ranks(), rc.Metrics())
			if perr != nil {
				return nil, perr
			}
			defer cleanup()
			res, err = leaflet.RunPilot(p, coords, cutoff, tasks, cancel)
		default:
			return nil, fmt.Errorf("jobs: unknown engine %q", engineName)
		}
		if err != nil {
			return nil, err
		}
		if rc.Cancelled() {
			return nil, ErrCancelled
		}
		return &Result{Leaflet: res}, nil
	}
}

// startPilot brings up a pilot with a temporary staging directory and
// the given metrics sink, returning a cleanup function.
func startPilot(cores int, m *engine.Metrics) (*pilot.Pilot, func(), error) {
	dir, err := os.MkdirTemp("", "mdtask-jobs-pilot-*")
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: creating pilot staging dir: %w", err)
	}
	cfg := pilot.Defaults()
	db := pilot.NewDB(cfg.DBLatency)
	p, err := pilot.NewPilot(cores, dir, db, cfg, m)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return p, func() {
		p.Shutdown()
		os.RemoveAll(dir)
	}, nil
}

// Resolve normalizes a spec and loads or generates its input — the
// first half of a one-shot run, split out so callers can report (and
// time) input loading separately from engine execution.
func Resolve(spec Spec) (Spec, *Input, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return Spec{}, nil, err
	}
	in, err := ResolveInput(norm)
	if err != nil {
		return Spec{}, nil, err
	}
	return norm, in, nil
}

// Run executes an already-resolved spec synchronously on the calling
// goroutine, returning the result and the engine metrics of the run.
// The run is uncached; use RunCached to attach a block store.
func Run(reg *Registry, spec Spec, in *Input) (*Result, MetricsSnapshot, error) {
	return RunCached(reg, spec, in, nil)
}

// RunCached is Run with a content-addressed block store attached: every
// engine's task bodies consult store before running their kernels and
// record completed results into it, so consecutive runs sharing content
// (same input on another engine, or a grown ensemble) recompute only
// missing blocks. A nil store runs uncached.
func RunCached(reg *Registry, spec Spec, in *Input, store *blockstore.Store) (*Result, MetricsSnapshot, error) {
	name := RunnerName(spec.Analysis, spec.Engine)
	runner, ok := reg.Lookup(name)
	if !ok {
		return nil, MetricsSnapshot{}, fmt.Errorf("jobs: no runner registered for %q", name)
	}
	rc := NewRunContext()
	rc.SetBlockStore(store)
	res, err := runner(rc, spec, in)
	return res, SnapshotOf(rc.Metrics()), err
}

// RunLocal is Resolve followed by Run — the one-shot path for callers
// that don't need the two phases separated.
func RunLocal(reg *Registry, spec Spec) (*Input, *Result, MetricsSnapshot, error) {
	norm, in, err := Resolve(spec)
	if err != nil {
		return nil, nil, MetricsSnapshot{}, err
	}
	res, metrics, err := Run(reg, norm, in)
	return in, res, metrics, err
}
