package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSchemaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, BaselineName("agg"))
	in := &File{
		Area: "agg", Go: "go1.24.0", OS: "linux", Arch: "amd64", Scale: "best-of-3@100ms",
		Results: []Result{
			{Bench: "z/Last", NsPerOp: 2, AllocsPerOp: 1, BytesPerOp: 8, Iterations: 10},
			{Bench: "a/First", NsPerOp: 1.5, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 99,
				Ignore: true, IgnoreReason: "why"},
		},
	}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != Version || out.Area != "agg" || out.Scale != in.Scale {
		t.Errorf("metadata = %+v", out)
	}
	// WriteFile sorts by bench name for stable diffs.
	if out.Results[0].Bench != "a/First" || out.Results[1].Bench != "z/Last" {
		t.Errorf("results not sorted: %+v", out.Results)
	}
	if !out.Results[0].Ignore || out.Results[0].IgnoreReason != "why" {
		t.Errorf("ignore flags lost: %+v", out.Results[0])
	}
}

func TestReadFileRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 99, "results": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
	if err := os.WriteFile(bad, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMergeBest(t *testing.T) {
	run1 := []Result{
		{Bench: "a", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64, Iterations: 10},
		{Bench: "b", NsPerOp: 50, AllocsPerOp: 2, BytesPerOp: 32, Iterations: 20},
	}
	run2 := []Result{
		{Bench: "a", NsPerOp: 80, AllocsPerOp: 6, BytesPerOp: 60, Iterations: 12},
		{Bench: "c", NsPerOp: 7, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 1000, Ignore: true, IgnoreReason: "r"},
	}
	out := MergeBest(run1, run2)
	if len(out) != 3 {
		t.Fatalf("%d results", len(out))
	}
	a := out[0]
	if a.Bench != "a" || a.NsPerOp != 80 || a.AllocsPerOp != 5 || a.BytesPerOp != 60 || a.Iterations != 12 {
		t.Errorf("best-of merge wrong: %+v", a)
	}
	if out[2].Bench != "c" || !out[2].Ignore || out[2].IgnoreReason != "r" {
		t.Errorf("single-run bench lost flags: %+v", out[2])
	}
}
