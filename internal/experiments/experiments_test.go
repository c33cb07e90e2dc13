package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parsePercent converts a "12.3%" cell back to a float.
func parsePercent(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", cell, err)
	}
	return v
}

// columnSum returns the sum of a column's percentages across rows.
func columnSum(t *testing.T, tab *Table, col int) float64 {
	t.Helper()
	var s float64
	for _, row := range tab.Rows {
		s += parsePercent(t, row[col])
	}
	return s
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("attack grid is slow")
	}
	sc := FastScale()
	tab, err := Table1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Header) != 7 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Header))
	}
	// Columns are distributions: each must sum to 100%.
	for col := 1; col < 7; col++ {
		if s := columnSum(t, tab, col); s < 99 || s > 101 {
			t.Errorf("column %d sums to %v%%", col, s)
		}
	}
	// The paper's headline shape: without DeTA most reconstructions are
	// recognizable; with any DeTA configuration none are.
	fullRecognizable := parsePercent(t, tab.Rows[0][1])
	if fullRecognizable < 50 {
		t.Errorf("baseline DLG recognizable rate %v%%, want majority", fullRecognizable)
	}
	for col := 2; col < 7; col++ {
		if r := parsePercent(t, tab.Rows[0][col]); r != 0 {
			t.Errorf("DeTA column %d has %v%% recognizable reconstructions, want 0", col, r)
		}
	}
	// With shuffling, reconstructions must land in the top buckets
	// (MSE >= 1) — on Full+Sh and 0.6+Sh. The 0.2+Sh column is not held to
	// that: at factor 0.2 the attack's dummy barely moves from its
	// initialization (EXPERIMENTS.md, Tables 1-2 note), so which
	// non-reconstruction bucket an image lands in depends on the one
	// permutation the round happens to draw. Over these 6 images the
	// HMAC-stream derivation's draw put 67% there and the AES-CTR
	// derivation's equally valid one 50% — 3 images, the threshold itself
	// — so the check pinned a derivation's luck, not a property. The
	// paper's claim for the column, 0% recognizable, is asserted above.
	for col := 4; col < 6; col++ {
		top := parsePercent(t, tab.Rows[2][col]) + parsePercent(t, tab.Rows[3][col])
		if top < 50 {
			t.Errorf("shuffle column %d has only %v%% in MSE>=1 buckets", col, top)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("attack grid is slow")
	}
	sc := FastScale()
	sc.AttackImages = 4
	tab, err := Table2(sc)
	if err != nil {
		t.Fatal(err)
	}
	if parsePercent(t, tab.Rows[0][1]) < 50 {
		t.Errorf("baseline iDLG recognizable rate %v%%", parsePercent(t, tab.Rows[0][1]))
	}
	for col := 2; col < 7; col++ {
		if r := parsePercent(t, tab.Rows[0][col]); r != 0 {
			t.Errorf("DeTA column %d recognizable %v%%, want 0", col, r)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("attack grid is slow")
	}
	sc := FastScale()
	tab, err := Table3(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Full observation: IG optimization makes progress (cosine distance
	// below 0.6 for all images). DeTA+shuffle: stuck in [0.8, 1].
	lowFull := parsePercent(t, tab.Rows[0][1]) + parsePercent(t, tab.Rows[1][1]) +
		parsePercent(t, tab.Rows[2][1]) + parsePercent(t, tab.Rows[3][1])
	if lowFull < 99 {
		t.Errorf("IG baseline distances not low: %v%% below 0.6", lowFull)
	}
	for col := 4; col < 7; col++ {
		if top := parsePercent(t, tab.Rows[5][col]); top < 99 {
			t.Errorf("shuffle column %d: only %v%% in [0.8,1]", col, top)
		}
	}
}

func TestFig3And4Render(t *testing.T) {
	if testing.Short() {
		t.Skip("reconstruction grids are slow")
	}
	sc := FastScale()
	sc.AttackIters = 60
	sc.IGIters = 60
	var buf bytes.Buffer
	if err := Fig3(sc, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 3", "Ground Truth", "DLG Full", "iDLG 0.2+Shuffle"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
	buf.Reset()
	if err := Fig4(sc, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4") || !strings.Contains(buf.String(), "IG Full") {
		t.Error("fig4 output incomplete")
	}
}

func TestFig5aEquivalenceAndOverhead(t *testing.T) {
	sc := FastScale()
	// One run's latency ratio is two sub-second timings of a shared
	// machine divided by each other (0.60 was seen once in 40 runs under
	// load), so the band is asserted on the median of five runs; the loss
	// equality is exact and is asserted on every run.
	const runs = 5
	ratios := make([]float64, 0, runs)
	for run := 0; run < runs; run++ {
		lossAcc, latency, err := Fig5a(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(lossAcc.Series) != 4 || len(latency.Series) != 2 {
			t.Fatalf("series counts %d, %d", len(lossAcc.Series), len(latency.Series))
		}
		// DeTA and FFL losses must be identical at every round ("no utility
		// loss").
		detaLoss, fflLoss := lossAcc.Series[0].Y, lossAcc.Series[1].Y
		for i := range detaLoss {
			if diff := detaLoss[i] - fflLoss[i]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("run %d round %d: DETA loss %v != FFL loss %v", run, i+1, detaLoss[i], fflLoss[i])
			}
		}
		detaLat, fflLat := latency.Series[0].Y, latency.Series[1].Y
		last := len(detaLat) - 1
		if detaLat[last] <= 0 || fflLat[last] <= 0 {
			t.Fatal("missing latency data")
		}
		ratios = append(ratios, detaLat[last]/fflLat[last])
	}
	// Latency is cumulative and DeTA's overhead is bounded (paper: +0.40x;
	// we allow a broad band for machine variance). The floor is 0.8, not
	// 1.0: the paper's overhead is network and SEV time, which a Session
	// on in-memory listeners does not pay, so what is left at this scale is
	// the transform and the RPC framing — a few percent of a round —
	// inside timer noise (EXPERIMENTS.md records negative overheads at fast
	// scale as noise).
	sort.Float64s(ratios)
	if median := ratios[runs/2]; median < 0.8 || median > 4.0 {
		t.Errorf("median DETA/FFL latency ratio %v outside plausible band [0.8,4] (runs: %v)", median, ratios)
	}
}

func TestFig5bMedian(t *testing.T) {
	sc := FastScale()
	lossAcc, _, err := Fig5b(sc)
	if err != nil {
		t.Fatal(err)
	}
	detaLoss, fflLoss := lossAcc.Series[0].Y, lossAcc.Series[1].Y
	for i := range detaLoss {
		if diff := detaLoss[i] - fflLoss[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("round %d: median DETA loss %v != FFL loss %v", i+1, detaLoss[i], fflLoss[i])
		}
	}
}

func TestFig5cPaillier(t *testing.T) {
	if testing.Short() {
		t.Skip("Paillier fusion is slow")
	}
	sc := FastScale()
	lossAcc, latency, err := Fig5c(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-point round trips make losses equal within encoding precision.
	detaLoss, fflLoss := lossAcc.Series[0].Y, lossAcc.Series[1].Y
	for i := range detaLoss {
		if diff := detaLoss[i] - fflLoss[i]; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("round %d: Paillier DETA loss %v != FFL loss %v", i+1, detaLoss[i], fflLoss[i])
		}
	}
	// The crypto dominates: per-round latency should vastly exceed the
	// plain-averaging latency of fig5a at the same scale.
	if latency.Series[1].Y[0] < 0.5 {
		t.Logf("warning: Paillier FFL round took %vs; expected crypto-dominated (>0.5s)", latency.Series[1].Y[0])
	}
}

func TestFig6TwoPartyCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("CIFAR workload is slow")
	}
	sc := FastScale()
	sc.CIFARRounds = 2
	lossAcc, latency, err := Fig6(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 4 series per party count (DETA/FFL x loss/acc) = 8; latency 4.
	if len(lossAcc.Series) != 8 {
		t.Fatalf("%d loss/acc series", len(lossAcc.Series))
	}
	if len(latency.Series) != 4 {
		t.Fatalf("%d latency series", len(latency.Series))
	}
	// 8-party latency must exceed 4-party latency for both systems.
	lat4 := latency.Series[0].Y[len(latency.Series[0].Y)-1]
	lat8 := latency.Series[2].Y[len(latency.Series[2].Y)-1]
	if lat8 <= lat4 {
		t.Errorf("8-party latency %v not above 4-party %v", lat8, lat4)
	}
}

func TestFig7NonIID(t *testing.T) {
	if testing.Short() {
		t.Skip("VGG workload is slow")
	}
	sc := FastScale()
	sc.RVLRounds = 2
	lossAcc, _, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	detaLoss, fflLoss := lossAcc.Series[0].Y, lossAcc.Series[1].Y
	for i := range detaLoss {
		if diff := detaLoss[i] - fflLoss[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("round %d: DETA loss %v != FFL loss %v", i+1, detaLoss[i], fflLoss[i])
		}
	}
}

func TestAblationShuffleCost(t *testing.T) {
	tab, err := AblationShuffleCost(FastScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestAblationAggregatorCount(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 5 sessions")
	}
	sc := FastScale()
	sc.SamplesPerParty = 12
	sc.TestSamples = 12
	tab, err := AblationAggregatorCount(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy must be identical across K.
	acc := tab.Rows[0][1]
	for _, row := range tab.Rows {
		if row[1] != acc {
			t.Errorf("accuracy differs across K: %v vs %v", row[1], acc)
		}
	}
}

func TestAblationAuthCost(t *testing.T) {
	tab, err := AblationAuthCost(FastScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestAblationKnownMapper(t *testing.T) {
	if testing.Short() {
		t.Skip("attack grid is slow")
	}
	sc := FastScale()
	sc.AttackImages = 3
	tab, err := AblationKnownMapper(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: partition-only. Leaked mapper must restore the attack;
	// secret mapper must not.
	if got := parsePercent(t, tab.Rows[0][1]); got != 0 {
		t.Errorf("mapper-secret partition attack succeeded %v%%", got)
	}
	if got := parsePercent(t, tab.Rows[0][2]); got < 50 {
		t.Errorf("mapper-leaked partition attack only %v%% successful", got)
	}
	// Row 1: +shuffle holds even with the mapper leaked.
	if got := parsePercent(t, tab.Rows[1][2]); got != 0 {
		t.Errorf("shuffle broken by leaked mapper: %v%%", got)
	}
}

func TestAblationDropout(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two sessions")
	}
	sc := FastScale()
	sc.SamplesPerParty = 12
	sc.TestSamples = 12
	tab, err := AblationDropout(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestAblationKeySpace(t *testing.T) {
	tab, err := AblationKeySpace(FastScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestAblationGeoLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("injects real delays")
	}
	tab, err := AblationGeoLatency(FastScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Rows are ordered by increasing delay; latency must increase too.
	prev := time.Duration(0)
	for _, row := range tab.Rows {
		d, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatalf("bad latency cell %q: %v", row[1], err)
		}
		if d < prev {
			t.Errorf("latency decreased with more link delay: %v after %v", d, prev)
		}
		prev = d
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatal("IDs() incomplete")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
	if err := Run("nope", FastScale(), io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// A cheap registered experiment must run end to end through Run.
	var buf bytes.Buffer
	if err := Run("ablation-keyspace", FastScale(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "KeyBits") {
		t.Fatal("rendered output missing expected header")
	}
}

func TestAblationLabelInference(t *testing.T) {
	if testing.Short() {
		t.Skip("computes many gradients")
	}
	sc := FastScale()
	sc.AttackImages = 3
	tab, err := AblationLabelInference(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsePercent(t, tab.Rows[0][1]); got < 90 {
		t.Errorf("full-gradient label inference %v%%, want ~100%%", got)
	}
	for _, row := range tab.Rows[1:] {
		if got := parsePercent(t, row[1]); got > 50 {
			t.Errorf("scenario %s label inference %v%%, want near chance", row[0], got)
		}
	}
}

func TestAblationLDP(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four sessions")
	}
	sc := FastScale()
	sc.SamplesPerParty = 12
	sc.TestSamples = 12
	tab, err := AblationLDP(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Noise sigma must increase monotonically down the rows.
	prev := -1.0
	for _, row := range tab.Rows {
		var sigma float64
		if _, err := fmt.Sscanf(row[1], "%f", &sigma); err != nil {
			t.Fatalf("bad sigma cell %q", row[1])
		}
		if sigma < prev {
			t.Errorf("sigma not monotone: %v after %v", sigma, prev)
		}
		prev = sigma
	}
}

func TestCSVRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"A", "B"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# T", "A,B", "1,2", "# n"} {
		if !strings.Contains(out, want) {
			t.Errorf("table CSV missing %q:\n%s", want, out)
		}
	}
	fig := &Figure{Title: "F", XLabel: "Round", X: []float64{1, 2},
		Series: []Series{{Name: "S", Y: []float64{0.5}}}}
	buf.Reset()
	if err := fig.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"Round,S", "1,0.5", "2,"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure CSV missing %q:\n%s", want, out)
		}
	}
}

func TestRunFormattedCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFormatted("ablation-keyspace", FastScale(), FormatCSV, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "KeyBits,KeySpace") {
		t.Fatalf("CSV output unexpected:\n%s", buf.String())
	}
	// Text fallback path.
	buf.Reset()
	if err := RunFormatted("ablation-keyspace", FastScale(), FormatText, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== Ablation") {
		t.Fatal("text output unexpected")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"A", "B"},
		Rows:   [][]string{{"1", "22"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "A", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		Title: "F", XLabel: "Round", X: []float64{1, 2},
		Series: []Series{{Name: "S", Y: []float64{0.5}}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== F ==", "Round", "S", "0.5000", "-", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBucketize(t *testing.T) {
	upper := []float64{1, 10}
	cases := map[float64]int{0.5: 0, 1: 1, 5: 1, 10: 2, 100: 2}
	for v, want := range cases {
		if got := bucketize(v, upper); got != want {
			t.Errorf("bucketize(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestPercent(t *testing.T) {
	if percent(1, 0) != "0%" {
		t.Error("zero total")
	}
	if percent(1, 3) != "33.3%" {
		t.Errorf("got %s", percent(1, 3))
	}
}
