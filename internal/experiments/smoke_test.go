package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// smoke_test.go runs EVERY registered experiment end to end at a minimal
// scale and pins the ID ↔ label ↔ CSV-header registry: a new experiment
// cannot ship unrunnable (the smoke run catches panics/errors across the
// whole grid) or unlabeled (an ID without a smokeWant entry fails the
// registry check below).

// tinyScale is the smallest structurally-faithful configuration: one
// round, one image, single-digit iteration counts. It exists only to
// prove every experiment runs; the numbers it produces are meaningless.
func tinyScale() Scale {
	sc := FastScale()
	sc.SamplesPerParty = 8
	sc.TestSamples = 8
	sc.BatchSize = 4
	sc.MNISTRounds = 1
	sc.PaillierRounds = 1
	sc.CIFARRounds = 1
	sc.RVLRounds = 1
	sc.AttackImages = 1
	sc.AttackIters = 8
	sc.IGImages = 1
	sc.IGIters = 8
	sc.IGRestarts = 1
	return sc
}

// testScale is the scale of the tests that train: FastScale, or in the
// race build tinyScale, one tiny round. Their equivalence assertions
// (DeTA's loss equals FFL's, accuracy equal across K) hold at any scale.
func testScale() Scale {
	if raceBuild {
		return tinyScale()
	}
	return FastScale()
}

// skipAttackGrid skips a test under -short and in the race build. Such a
// test asserts attack success rates, which need the full attack budget,
// and has no concurrency of its own for the detector to check; in the race
// build TestSmokeAllExperiments still runs every attack, at tinyScale.
// The verification gate (scripts/check.sh, CI) runs this package without
// -race too, so these assertions and the Fig5a latency band stay gated.
func skipAttackGrid(t *testing.T, why string) {
	t.Helper()
	if testing.Short() || raceBuild {
		t.Skip(why)
	}
}

// smokeWant maps every experiment ID to substrings its rendered output
// must contain — the table CSV header (or figure title/series header)
// that identifies the artifact. Adding an experiment to Registry without
// adding its labels here fails TestSmokeRegistryPinned.
var smokeWant = map[string][]string{
	"table1":               {"DLG MSE,Full*"},
	"table2":               {"iDLG MSE,Full*"},
	"table3":               {"IG Cosine Distance,Full*"},
	"fig3":                 {"Figure 3", "Ground Truth"},
	"fig4":                 {"Figure 4"},
	"fig5a":                {"Figure 5a/5d: MNIST Iterative Averaging", "Round,DETA-Loss"},
	"fig5b":                {"Figure 5b/5e: MNIST Coordinate Median", "Round,DETA-Loss"},
	"fig5c":                {"Figure 5c/5f: MNIST Paillier Fusion", "Round,DETA-Loss"},
	"fig6":                 {"Figure 6a: CIFAR-10 Loss/Accuracy", "Round,"},
	"fig7":                 {"Figure 7: RVL-CDIP VGG-16 transfer", "Round,"},
	"ablation-shuffle":     {"Params,Partition+Shuffle"},
	"ablation-aggs":        {"K,FinalAccuracy"},
	"ablation-auth":        {"Stage,Cost"},
	"ablation-keyspace":    {"KeyBits,KeySpace"},
	"ablation-knownmapper": {"Scenario,Mapper secret,Mapper leaked"},
	"ablation-dropout":     {"Round,Loss (all present)"},
	"ablation-geo":         {"LinkDelay,RoundLatency"},
	"ablation-labels":      {"Scenario,LabelAccuracy"},
	"ablation-ldp":         {"Epsilon,NoiseSigma"},
	"churn":                {"Parties,Dropout,Rounds,FusedFull,FusedDegraded,Abandoned"},
}

// TestSmokeRegistryPinned checks the three registries agree: every
// experiment ID has labels pinned in smokeWant (and vice versa), and
// every format-aware builder corresponds to a registered runner.
func TestSmokeRegistryPinned(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := smokeWant[id]; !ok {
			t.Errorf("experiment %q registered but has no pinned labels in smokeWant — add its CSV header", id)
		}
	}
	for id := range smokeWant {
		if _, ok := Registry[id]; !ok {
			t.Errorf("smokeWant entry %q does not match any registered experiment", id)
		}
	}
	for id := range tableBuilders {
		if _, ok := Registry[id]; !ok {
			t.Errorf("tableBuilders entry %q not in Registry", id)
		}
	}
	for id := range figureBuilders {
		if _, ok := Registry[id]; !ok {
			t.Errorf("figureBuilders entry %q not in Registry", id)
		}
	}
	for id := range tableBuilders {
		if _, ok := figureBuilders[id]; ok {
			t.Errorf("experiment %q is registered as both table and figure", id)
		}
	}
}

// TestSmokeAllExperiments table-drives every experiments.IDs() entry
// through RunFormatted at tinyScale, in both CSV and the text fallback,
// checking the pinned labels appear.
func TestSmokeAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment grid (tiny scale, still seconds per entry)")
	}
	sc := tinyScale()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunFormatted(id, sc, FormatCSV, &buf); err != nil {
				t.Fatalf("experiment %s failed at tiny scale: %v", id, err)
			}
			out := buf.String()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("experiment %s produced no output", id)
			}
			for _, want := range smokeWant[id] {
				if !strings.Contains(out, want) {
					t.Errorf("experiment %s output missing pinned label %q:\n%s", id, want, out)
				}
			}
		})
	}
}
