package bench

import (
	"fmt"

	"mdtask/internal/leaflet"
	"mdtask/internal/rdd"
	"mdtask/internal/stats"
	"mdtask/internal/synth"
)

// frameworkHeader is the header of Tables 1 and 3: a row-label column
// followed by one column per compared framework.
func frameworkHeader(first string) []string {
	h := []string{first}
	for _, e := range tableFrameworks {
		h = append(h, FrameworkLabels[e])
	}
	return h
}

// Tab1 renders the paper's Table 1 (framework comparison) from Table1.
func Tab1(cal *Calibration) *Table {
	t := &Table{
		ID:     "tab1",
		Title:  "Frameworks comparison (paper Table 1)",
		Header: frameworkHeader("property"),
	}
	add := func(name string, f func(Traits) string) {
		row := []interface{}{name}
		for _, tr := range Table1 {
			row = append(row, f(tr))
		}
		t.AddRow(row...)
	}
	add("Languages", func(tr Traits) string { return tr.Languages })
	add("Task Abstraction", func(tr Traits) string { return tr.TaskAbstraction })
	add("Functional Abstraction", func(tr Traits) string { return tr.FunctionalAPI })
	add("Higher-Level Abstractions", func(tr Traits) string { return tr.HigherLevel })
	add("Resource Management", func(tr Traits) string { return tr.ResourceMgmt })
	add("Scheduler", func(tr Traits) string { return tr.Scheduler })
	add("Shuffle", func(tr Traits) string { return tr.Shuffle })
	add("Limitations", func(tr Traits) string { return tr.Limitations })
	return t
}

// tab2Atoms sizes the real runs backing Table 2's measured columns.
const tab2Atoms = 8192

// Tab2 regenerates Table 2 (MapReduce operations per Leaflet Finder
// approach), augmenting the paper's structural description with
// data-movement volumes measured from real runs of the four approaches
// on the Spark-like engine.
func Tab2(cal *Calibration) *Table {
	t := &Table{
		ID:    "tab2",
		Title: fmt.Sprintf("Leaflet Finder MapReduce operations (measured on a %d-atom membrane)", tab2Atoms),
		Header: []string{"approach", "partitioning", "map", "shuffle payload", "reduce",
			"tasks", "edges", "broadcast", "shuffle"},
	}
	rows := []struct {
		a           leaflet.Approach
		part        string
		mapDesc     string
		shuffleDesc string
		reduceDesc  string
	}{
		{leaflet.Broadcast1D, "1D", "edge discovery via pairwise distance", "edge list (O(E))", "connected components"},
		{leaflet.TaskAPI2D, "2D", "edge discovery via pairwise distance", "edge list (O(E))", "connected components"},
		{leaflet.ParallelCC, "2D", "pairwise distance + partial components", "partial components (O(n))", "join components"},
		{leaflet.TreeSearch, "2D", "tree search + partial components", "partial components (O(n))", "join components"},
	}
	sys := synth.Bilayer(tab2Atoms, 11)
	for _, r := range rows {
		res, err := leaflet.RunRDD(rdd.NewContext(0), r.a, sys.Coords, synth.BilayerCutoff, 64)
		if err != nil {
			t.AddRow(r.a.String(), r.part, r.mapDesc, r.shuffleDesc, r.reduceDesc, "-", "-", "-", "ERR: "+err.Error())
			continue
		}
		t.AddRow(r.a.String(), r.part, r.mapDesc, r.shuffleDesc, r.reduceDesc,
			res.Stats.Tasks, res.Stats.Edges,
			stats.FormatBytes(res.Stats.BroadcastBytes), stats.FormatBytes(res.Stats.ShuffleBytes))
	}
	t.Notes = append(t.Notes,
		"expected shape: approaches 3-4 shuffle far fewer bytes than 1-2 (components vs edges).")
	return t
}

// Tab3 renders the paper's Table 3 (decision framework) from
// DecisionTable, plus a worked recommendation example.
func Tab3(cal *Calibration) *Table {
	t := &Table{
		ID:     "tab3",
		Title:  "Decision framework: criteria and ranking (paper Table 3)",
		Header: frameworkHeader("criterion"),
	}
	section := func(name string, crits []Criterion) {
		t.AddRow("["+name+"]", "", "", "")
		for _, c := range crits {
			row := []interface{}{string(c)}
			for _, e := range tableFrameworks {
				row = append(row, DecisionTable[c][e].String())
			}
			t.AddRow(row...)
		}
	}
	section("Task Management", TaskManagementCriteria)
	section("Application Characteristics", ApplicationCriteria)

	recs, err := Recommend(Throughput, ManyTasks, Shuffle)
	if err == nil && len(recs) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"example: for {throughput, many tasks, shuffle}, Recommend ranks %s first (score %d)",
			FrameworkLabels[recs[0].Engine], recs[0].Score))
	}
	return t
}
