package bench

import (
	"testing"

	"mdtask/internal/jobs"
)

func TestRecommend(t *testing.T) {
	for _, tc := range []struct {
		needs []Criterion
		want  string
	}{
		// Throughput-oriented: Dask must rank first (Table 3: ++ vs + vs -).
		{[]Criterion{LowLatency, Throughput}, jobs.EngineDask},
		// Shuffle/broadcast/caching-heavy: Spark wins.
		{[]Criterion{Shuffle, BroadcastCrit, Caching}, jobs.EngineSpark},
		// HPC/MPI tasks with native code: RADICAL-Pilot wins.
		{[]Criterion{MPIHPCTasks, PythonNative}, jobs.EnginePilot},
	} {
		recs, err := Recommend(tc.needs...)
		if err != nil {
			t.Fatal(err)
		}
		if recs[0].Engine != tc.want {
			t.Errorf("Recommend(%v) first = %s, want %s", tc.needs, recs[0].Engine, tc.want)
		}
	}
}

func TestRecommendUnknownCriterion(t *testing.T) {
	if _, err := Recommend("Nonsense"); err == nil {
		t.Error("unknown criterion accepted")
	}
}

func TestDecisionTableComplete(t *testing.T) {
	for _, c := range append(append([]Criterion{}, TaskManagementCriteria...), ApplicationCriteria...) {
		row, ok := DecisionTable[c]
		if !ok {
			t.Errorf("criterion %q missing from table", c)
			continue
		}
		for _, e := range tableFrameworks {
			if _, ok := row[e]; !ok {
				t.Errorf("criterion %q missing engine %s", c, e)
			}
		}
	}
}

func TestSupportStrings(t *testing.T) {
	want := map[Support]string{Unsupported: "-", Minor: "o", Supported: "+", Major: "++"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if Support(9).String() != "?" {
		t.Error("unknown support string")
	}
}

// TestTable1Rows checks Table1 has one complete column per compared
// framework, in the column order Tab1's header prints.
func TestTable1Rows(t *testing.T) {
	if len(Table1) != len(tableFrameworks) {
		t.Fatalf("Table1 has %d rows, want %d", len(Table1), len(tableFrameworks))
	}
	for i, tr := range Table1 {
		if tr.Engine != tableFrameworks[i] {
			t.Errorf("Table1[%d] is %s, want %s", i, tr.Engine, tableFrameworks[i])
		}
		if tr.Languages == "" || tr.Scheduler == "" {
			t.Errorf("%s traits incomplete", tr.Engine)
		}
	}
}
