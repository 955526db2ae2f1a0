package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineThroughput/n=1000/workers=1-4         	    2000	    200100 ns/op	      5100 qps	    280000 p99-ns	       0 B/op	       0 allocs/op
BenchmarkEngineThroughput/n=1000/workers=4-4         	    2000	     60100 ns/op	     16600 qps	    310000 p99-ns	       0 B/op	       0 allocs/op
BenchmarkMarketSteadyStateBudget/rh-n=1000-4         	     100	    190000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	12.3s
`

func TestParseBench(t *testing.T) {
	rows, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3", len(rows))
	}
	r := rows[0]
	if r.Name != "BenchmarkEngineThroughput/n=1000/workers=1" {
		t.Fatalf("procs suffix not stripped: %q", r.Name)
	}
	if r.Iterations != 2000 || r.NsPerOp != 200100 {
		t.Fatalf("core metrics wrong: %+v", r)
	}
	if r.Qps == nil || *r.Qps != 5100 || r.P99Ns == nil || *r.P99Ns != 280000 {
		t.Fatalf("custom metrics wrong: %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 0 || r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Fatalf("zero alloc columns must be recorded, not dropped: %+v", r)
	}
	if rows[2].Qps != nil {
		t.Fatalf("market row grew a qps metric: %+v", rows[2])
	}
	if _, err := parseBench(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Fatal("result-free input accepted")
	}
}

func TestMergePreservesAnnotations(t *testing.T) {
	doc := &File{
		Name: "engine-baseline",
		Date: "2026-01-01",
		Results: []Row{
			{Name: "BenchmarkEngineThroughput/n=1000/workers=1", Iterations: 1, NsPerOp: 999999,
				Qps: ptr(10), BytesPerOp: ptr(0), AllocsPerOp: ptr(0),
				Note: "recorded on a 1-core host"},
			{Name: "BenchmarkMarketSteadyStateRH/n=500", Iterations: 5, NsPerOp: 5,
				Benchtime: "100x", Note: "untouched"},
		},
	}
	rows, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	updated, added, err := merge(doc, rows)
	if err != nil {
		t.Fatal(err)
	}
	if updated != 1 || added != 2 {
		t.Fatalf("updated=%d added=%d, want 1/2", updated, added)
	}
	got := doc.Results[0]
	if got.NsPerOp != 200100 || *got.Qps != 5100 || got.Iterations != 2000 {
		t.Fatalf("matched row not updated: %+v", got)
	}
	if got.Note != "recorded on a 1-core host" {
		t.Fatalf("hand annotation clobbered: %+v", got)
	}
	if r := doc.Results[1]; r.NsPerOp != 5 || r.Note != "untouched" || r.Benchtime != "100x" {
		t.Fatalf("unmeasured row modified: %+v", r)
	}
	if doc.Results[3].Name != "BenchmarkMarketSteadyStateBudget/rh-n=1000" {
		t.Fatalf("new rows not appended in order: %+v", doc.Results)
	}
}

// TestRunRoundTrip drives the tool end to end against the repository's
// actual BENCH_ENGINE.json schema: parse, merge, write, re-load.
func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.out")
	jsonPath := filepath.Join(dir, "BENCH_ENGINE.json")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	seed := `{
  "name": "engine-baseline",
  "date": "2026-01-01",
  "host": {"goos": "linux"},
  "results": [
    {"name": "BenchmarkEngineThroughput/n=1000/workers=1", "iterations": 1, "ns_per_op": 1, "qps": 1, "p99_ns": 1, "bytes_per_op": 8, "allocs_per_op": 1, "note": "stale"}
  ]
}`
	if err := os.WriteFile(jsonPath, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(benchPath, jsonPath, "2026-07-27", "EngineThroughput", true, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged document is not valid JSON: %v", err)
	}
	if doc.Date != "2026-07-27" || doc.Host["goos"] != "linux" {
		t.Fatalf("document metadata wrong: %+v", doc)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("filter leaked rows: %d results (want workers=1 updated + workers=4 added)", len(doc.Results))
	}
	if doc.Results[0].NsPerOp != 200100 || *doc.Results[0].BytesPerOp != 0 || doc.Results[0].Note != "stale" {
		t.Fatalf("round-trip row wrong: %+v", doc.Results[0])
	}
	if !strings.Contains(stderr.String(), "1 rows updated, 1 added") {
		t.Fatalf("summary line wrong: %q", stderr.String())
	}
}

const countBench = `pkg: repro
BenchmarkMarketSteadyStateRH/n=1000-2         	    7400	    152000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMarketSteadyStateTALU/n=1000-2       	    9000	    100000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMarketSteadyStateRH/n=1000-2         	    7100	    160000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMarketSteadyStateTALU/n=1000-2       	    9100	     98000 ns/op	       8 B/op	       1 allocs/op
BenchmarkMarketSteadyStateRH/n=1000-2         	    7900	    140000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMarketSteadyStateTALU/n=1000-2       	    8800	    104000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMarketSteadyStateTALU/n=1000-2       	    8700	    106000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSingle                               	     100	      5000 ns/op
PASS
`

// TestParseFoldsRepeatedRuns: -count N output folds into one row per
// name with the median ns/op, its spread, the run count and the procs
// suffix, instead of silently keeping the last run.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	rows, err := parseBench(strings.NewReader(countBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("folded into %d rows, want 3: %+v", len(rows), rows)
	}
	rh, talu, single := rows[0], rows[1], rows[2]
	if rh.Name != "BenchmarkMarketSteadyStateRH/n=1000" || talu.Name != "BenchmarkMarketSteadyStateTALU/n=1000" {
		t.Fatalf("first-appearance order lost: %q, %q", rh.Name, talu.Name)
	}
	// Odd count: the median run stands whole.
	if rh.NsPerOp != 152000 || rh.Iterations != 7400 || rh.Runs != 3 ||
		rh.NsPerOpMin != 140000 || rh.NsPerOpMax != 160000 || rh.Procs != 2 {
		t.Fatalf("odd-count fold wrong: %+v", rh)
	}
	// Even count: the median averages the middle pair; the other
	// metrics come from the lower-median run, allocs from the worst.
	if talu.NsPerOp != 102000 || talu.Iterations != 9000 || talu.Runs != 4 ||
		talu.NsPerOpMin != 98000 || talu.NsPerOpMax != 106000 || talu.Procs != 2 {
		t.Fatalf("even-count fold wrong: %+v", talu)
	}
	if *talu.AllocsPerOp != 1 || *talu.BytesPerOp != 8 {
		t.Fatalf("an allocating run was hidden by the fold: %+v", talu)
	}
	// No suffix means GOMAXPROCS=1; a single run records no spread.
	if single.Procs != 1 || single.Runs != 1 || single.NsPerOpMin != 0 || single.NsPerOpMax != 0 {
		t.Fatalf("single-run row wrong: %+v", single)
	}
	mixed := "BenchmarkX-2 10 5 ns/op\nBenchmarkX-4 10 6 ns/op\n"
	if _, err := parseBench(strings.NewReader(mixed)); err == nil {
		t.Fatal("runs at different GOMAXPROCS folded into one row")
	}
}

// TestMergeReplacesSpread: re-recording a row overwrites its spread,
// run count and procs, so a single later run leaves no stale extremes.
func TestMergeReplacesSpread(t *testing.T) {
	doc := &File{Results: []Row{{Name: "BenchmarkSingle", NsPerOp: 7000,
		NsPerOpMin: 6000, NsPerOpMax: 9000, Runs: 5, Procs: 4, Note: "kept"}}}
	rows, err := parseBench(strings.NewReader(countBench))
	if err != nil {
		t.Fatal(err)
	}
	if updated, added, err := merge(doc, rows); err != nil || updated != 1 || added != 2 {
		t.Fatalf("updated=%d added=%d err=%v, want 1/2", updated, added, err)
	}
	got := doc.Results[0]
	if got.NsPerOp != 5000 || got.NsPerOpMin != 0 || got.NsPerOpMax != 0 ||
		got.Runs != 1 || got.Procs != 1 || got.Note != "kept" {
		t.Fatalf("re-recorded row wrong: %+v", got)
	}
	data, err := json.Marshal(doc.Results[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ns_per_op":152000`, `"ns_per_op_min":140000`, `"ns_per_op_max":160000`, `"runs":3`, `"procs":2`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("serialized row %s lacks %s", data, key)
		}
	}
}

const twoHostBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkA-2    100    5000 ns/op
PASS
goos: darwin
goarch: arm64
pkg: repro/internal/core
cpu: Apple M2
BenchmarkB-2    100    7000 ns/op
PASS
`

// TestParseStampsHost: every row carries the cpu:, goos: and goarch:
// header values of the package block it was printed in.
func TestParseStampsHost(t *testing.T) {
	rows, err := parseBench(strings.NewReader(twoHostBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("parsed %d rows, want 2", len(rows))
	}
	if a := rows[0]; a.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || a.Goos != "linux" || a.Goarch != "amd64" {
		t.Fatalf("first block's host wrong: %+v", a)
	}
	if b := rows[1]; b.CPU != "Apple M2" || b.Goos != "darwin" || b.Goarch != "arm64" {
		t.Fatalf("second block's host wrong: %+v", b)
	}
	data, err := json.Marshal(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cpu":"Intel(R) Xeon(R) Processor @ 2.10GHz"`, `"goos":"linux"`, `"goarch":"amd64"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("serialized row %s lacks %s", data, key)
		}
	}
	// Header-less output parses, with no host stamped.
	if rows, err := parseBench(strings.NewReader("BenchmarkX 10 5 ns/op\n")); err != nil || rows[0].CPU != "" {
		t.Fatalf("header-less output: rows=%+v err=%v", rows, err)
	}
}

// TestFoldRefusesMixedCPUs: -count repeats of one name recorded on two
// CPU models must not fold into one median.
func TestFoldRefusesMixedCPUs(t *testing.T) {
	mixed := "cpu: Intel(R) Xeon(R) Processor\nBenchmarkX-2 10 5 ns/op\n" +
		"cpu: AMD EPYC 7B13\nBenchmarkX-2 10 6 ns/op\n"
	_, err := parseBench(strings.NewReader(mixed))
	if err == nil || !strings.Contains(err.Error(), "AMD EPYC 7B13") {
		t.Fatalf("runs on two CPU models folded: err = %v", err)
	}
}

// TestMergeRefusesOtherCPU: a row stamped with one CPU model is never
// overwritten by a run on another (or on an unknown one); the document
// is left untouched, and run writes nothing. A row recorded before
// host stamping takes the new stamp.
func TestMergeRefusesOtherCPU(t *testing.T) {
	const xeon = "Intel(R) Xeon(R) Processor @ 2.10GHz"
	fresh := func() *File {
		return &File{Results: []Row{
			{Name: "BenchmarkA", NsPerOp: 1, CPU: "Apple M2", Goos: "darwin", Goarch: "arm64"},
			{Name: "BenchmarkB", NsPerOp: 2},
		}}
	}
	rows, err := parseBench(strings.NewReader(sampleBench + "BenchmarkA-2 10 9 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	doc := fresh()
	if _, _, err := merge(doc, rows); err == nil || !strings.Contains(err.Error(), "Apple M2") {
		t.Fatalf("merge across CPU models accepted: err = %v", err)
	}
	if len(doc.Results) != 2 || doc.Results[0].NsPerOp != 1 || doc.Results[0].CPU != "Apple M2" {
		t.Fatalf("refused merge modified the document: %+v", doc.Results)
	}
	unknown, err := parseBench(strings.NewReader("BenchmarkA 10 9 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := merge(fresh(), unknown); err == nil {
		t.Fatal("merge of a run on an unknown CPU into a stamped row accepted")
	}

	same, err := parseBench(strings.NewReader("cpu: Apple M2\ngoos: darwin\nBenchmarkA 10 9 ns/op\n" +
		"cpu: " + xeon + "\ngoos: linux\ngoarch: amd64\nBenchmarkB-2 10 8 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	doc = fresh()
	if updated, added, err := merge(doc, same); err != nil || updated != 2 || added != 0 {
		t.Fatalf("same-host merge: updated=%d added=%d err=%v", updated, added, err)
	}
	if a := doc.Results[0]; a.NsPerOp != 9 || a.CPU != "Apple M2" {
		t.Fatalf("same-CPU row not updated: %+v", a)
	}
	if b := doc.Results[1]; b.NsPerOp != 8 || b.CPU != xeon || b.Goos != "linux" || b.Goarch != "amd64" {
		t.Fatalf("legacy row not stamped: %+v", b)
	}

	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.out")
	jsonPath := filepath.Join(dir, "BENCH_ENGINE.json")
	seed := `{"name": "engine-baseline", "results": [{"name": "BenchmarkEngineThroughput/n=1000/workers=1", "ns_per_op": 1, "cpu": "Apple M2"}]}`
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(benchPath, jsonPath, "", "", true, &stdout, &stderr); err == nil {
		t.Fatal("run merged across CPU models")
	}
	if data, err := os.ReadFile(jsonPath); err != nil || string(data) != seed {
		t.Fatalf("refused run rewrote the baseline: %s (%v)", data, err)
	}
}
