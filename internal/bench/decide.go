package bench

import (
	"fmt"
	"sort"

	"mdtask/internal/jobs"
)

// The paper's qualitative framework comparison (Table 1) and decision
// framework (Table 3) as data, keyed by the jobs engine names of the
// compared frameworks, plus the Recommend facility built on Table 3.

// FrameworkLabels maps the paper's engines to the names its tables
// print.
var FrameworkLabels = map[string]string{
	jobs.EnginePilot: "RADICAL-Pilot",
	jobs.EngineSpark: "Spark",
	jobs.EngineDask:  "Dask",
	jobs.EngineMPI:   "MPI",
}

// tableFrameworks is the column order of Tables 1 and 3. MPI is the
// baseline and has no column, as in the paper.
var tableFrameworks = []string{jobs.EnginePilot, jobs.EngineSpark, jobs.EngineDask}

// Support grades how well a framework supports a criterion, following
// the paper's Table 3 legend.
type Support int

const (
	// Unsupported: "-" — unsupported or low performance.
	Unsupported Support = iota
	// Minor: "o" — minor support.
	Minor
	// Supported: "+" — supported.
	Supported
	// Major: "++" — major support.
	Major
)

// String renders the paper's symbols.
func (s Support) String() string {
	switch s {
	case Unsupported:
		return "-"
	case Minor:
		return "o"
	case Supported:
		return "+"
	case Major:
		return "++"
	default:
		return "?"
	}
}

// Criterion is one row of the decision framework (Table 3).
type Criterion string

// The criteria of Table 3, grouped as in the paper.
const (
	// Task management criteria.
	LowLatency  Criterion = "Low Latency"
	Throughput  Criterion = "Throughput"
	MPIHPCTasks Criterion = "MPI/HPC Tasks"
	TaskAPI     Criterion = "Task API"
	ManyTasks   Criterion = "Large Number of Tasks"
	// Application characteristics criteria.
	PythonNative   Criterion = "Python/native Code"
	JavaCode       Criterion = "Java"
	HighLevelAbstr Criterion = "Higher-Level Abstraction"
	Shuffle        Criterion = "Shuffle"
	BroadcastCrit  Criterion = "Broadcast"
	Caching        Criterion = "Caching"
)

// TaskManagementCriteria and ApplicationCriteria list Table 3's rows in
// order.
var (
	TaskManagementCriteria = []Criterion{LowLatency, Throughput, MPIHPCTasks, TaskAPI, ManyTasks}
	ApplicationCriteria    = []Criterion{PythonNative, JavaCode, HighLevelAbstr, Shuffle, BroadcastCrit, Caching}
)

// DecisionTable is the paper's Table 3: per-criterion support rankings
// for RADICAL-Pilot, Spark and Dask.
var DecisionTable = map[Criterion]map[string]Support{
	LowLatency:     {jobs.EnginePilot: Unsupported, jobs.EngineSpark: Minor, jobs.EngineDask: Supported},
	Throughput:     {jobs.EnginePilot: Unsupported, jobs.EngineSpark: Supported, jobs.EngineDask: Major},
	MPIHPCTasks:    {jobs.EnginePilot: Supported, jobs.EngineSpark: Minor, jobs.EngineDask: Minor},
	TaskAPI:        {jobs.EnginePilot: Supported, jobs.EngineSpark: Minor, jobs.EngineDask: Major},
	ManyTasks:      {jobs.EnginePilot: Unsupported, jobs.EngineSpark: Major, jobs.EngineDask: Major},
	PythonNative:   {jobs.EnginePilot: Major, jobs.EngineSpark: Minor, jobs.EngineDask: Supported},
	JavaCode:       {jobs.EnginePilot: Minor, jobs.EngineSpark: Major, jobs.EngineDask: Minor},
	HighLevelAbstr: {jobs.EnginePilot: Unsupported, jobs.EngineSpark: Major, jobs.EngineDask: Supported},
	Shuffle:        {jobs.EnginePilot: Unsupported, jobs.EngineSpark: Major, jobs.EngineDask: Supported},
	BroadcastCrit:  {jobs.EnginePilot: Unsupported, jobs.EngineSpark: Major, jobs.EngineDask: Supported},
	Caching:        {jobs.EnginePilot: Unsupported, jobs.EngineSpark: Major, jobs.EngineDask: Minor},
}

// Traits is one column of the paper's Table 1 (framework comparison).
type Traits struct {
	Engine          string
	Languages       string
	TaskAbstraction string
	FunctionalAPI   string
	HigherLevel     string
	ResourceMgmt    string
	Scheduler       string
	Shuffle         string
	Limitations     string
}

// Table1 reproduces the paper's framework-comparison table, in
// tableFrameworks order.
var Table1 = []Traits{
	{
		Engine:          jobs.EnginePilot,
		Languages:       "Python",
		TaskAbstraction: "Task (Compute-Unit)",
		FunctionalAPI:   "-",
		HigherLevel:     "EnTK",
		ResourceMgmt:    "Pilot-Job",
		Scheduler:       "Individual Tasks",
		Shuffle:         "-",
		Limitations:     "no shuffle, filesystem-based communication",
	},
	{
		Engine:          jobs.EngineSpark,
		Languages:       "Java, Scala, Python, R",
		TaskAbstraction: "Map-Task",
		FunctionalAPI:   "RDD API",
		HigherLevel:     "Dataframe, ML Pipeline, MLlib",
		ResourceMgmt:    "Spark Execution Engines",
		Scheduler:       "Stage-oriented DAG",
		Shuffle:         "hash/sort-based shuffle",
		Limitations:     "high overheads for Python tasks (serialization)",
	},
	{
		Engine:          jobs.EngineDask,
		Languages:       "Python",
		TaskAbstraction: "Delayed",
		FunctionalAPI:   "Bag",
		HigherLevel:     "Dataframe, Arrays for block computations",
		ResourceMgmt:    "Dask Distributed Scheduler",
		Scheduler:       "DAG",
		Shuffle:         "hash/sort-based shuffle",
		Limitations:     "Dask Array can not deal with dynamic output shapes",
	},
}

// Recommendation is a ranked engine with its Table 3 score: the sum of
// its support grades over the criteria asked for.
type Recommendation struct {
	Engine string
	Score  int
}

// Recommend ranks the three task-parallel frameworks (MPI is the
// baseline, not ranked, as in Table 3) against an application's needs,
// each weighted equally, using the paper's decision framework (§4.4).
// Engines are ordered by descending score; ties preserve Table 3's
// column order.
func Recommend(needs ...Criterion) ([]Recommendation, error) {
	recs := make([]Recommendation, 0, len(tableFrameworks))
	for _, e := range tableFrameworks {
		rec := Recommendation{Engine: e}
		for _, c := range needs {
			row, ok := DecisionTable[c]
			if !ok {
				return nil, fmt.Errorf("bench: unknown criterion %q", c)
			}
			rec.Score += int(row[e])
		}
		recs = append(recs, rec)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Score > recs[j].Score })
	return recs, nil
}
