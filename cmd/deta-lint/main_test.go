package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// suppressFixture is the lint fixture whose malformed //lint:ignore is a
// lintignore finding whatever import path the package loads under, so
// it exercises the findings exit without posing as a scoped package.
var suppressFixture = filepath.Join("..", "..", "internal", "lint", "testdata", "src", "suppress")

// TestExitStatus pins the exit contract the CI gate relies on: 0 on a
// clean package, 1 (with the finding printed) on a package with a
// finding, 2 on a usage or load failure, and -sarif writing a SARIF log
// of the findings it gated on.
func TestExitStatus(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{"deta/internal/parallel"}, &out, &errb); code != 0 {
			t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("clean package printed findings: %s", out.String())
		}
	})

	t.Run("usage", func(t *testing.T) {
		for _, args := range [][]string{
			{"-json"},
			{"-baseline", "lint-baseline.json"},
			{"./no/such/dir"},
		} {
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 2 {
				t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errb.String())
			}
		}
	})

	t.Run("finding", func(t *testing.T) {
		sarif := filepath.Join(t.TempDir(), "out.sarif")
		var out, errb bytes.Buffer
		if code := run([]string{"-sarif", sarif, suppressFixture}, &out, &errb); code != 1 {
			t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "suppress.go:14:2: [lintignore] malformed directive") {
			t.Errorf("finding not printed:\n%s", out.String())
		}
		if !strings.Contains(errb.String(), "1 finding(s)") {
			t.Errorf("stderr missing the finding count: %s", errb.String())
		}

		data, err := os.ReadFile(sarif)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Version string `json:"version"`
			Runs    []struct {
				Results []struct {
					RuleID    string `json:"ruleId"`
					Locations []struct {
						PhysicalLocation struct {
							Region struct {
								StartLine int `json:"startLine"`
							} `json:"region"`
						} `json:"physicalLocation"`
					} `json:"locations"`
				} `json:"results"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("SARIF log is not valid JSON: %v", err)
		}
		if doc.Version != "2.1.0" || len(doc.Runs) != 1 || len(doc.Runs[0].Results) != 1 {
			t.Fatalf("SARIF log shape: %s", data)
		}
		r := doc.Runs[0].Results[0]
		if r.RuleID != "lintignore" || len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.Region.StartLine != 14 {
			t.Errorf("SARIF result %+v, want lintignore at line 14", r)
		}
	})
}
