package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Format selects how a runner renders its results.
type Format int

// Output formats.
const (
	FormatText Format = iota
	FormatCSV
)

// Runner executes one experiment at the given scale and renders its
// results in the given format.
type Runner func(sc Scale, fm Format, w io.Writer) error

func tableRunner(f func(Scale) (*Table, error)) Runner {
	return func(sc Scale, fm Format, w io.Writer) error {
		t, err := f(sc)
		if err != nil {
			return err
		}
		if fm == FormatCSV {
			return t.RenderCSV(w)
		}
		t.Render(w)
		return nil
	}
}

func figureRunner(f func(Scale) (*Figure, *Figure, error)) Runner {
	return func(sc Scale, fm Format, w io.Writer) error {
		lossAcc, latency, err := f(sc)
		if err != nil {
			return err
		}
		if fm == FormatCSV {
			if err := lossAcc.RenderCSV(w); err != nil {
				return err
			}
			return latency.RenderCSV(w)
		}
		lossAcc.Render(w)
		latency.Render(w)
		return nil
	}
}

// textRunner wraps an experiment that renders only as text (the ASCII
// reconstruction grids of Figures 3 and 4): it writes text in every
// format.
func textRunner(f func(Scale, io.Writer) error) Runner {
	return func(sc Scale, _ Format, w io.Writer) error { return f(sc, w) }
}

// Registry maps experiment IDs (DESIGN.md §4) to runners.
var Registry = map[string]Runner{
	"table1":               tableRunner(Table1),
	"table2":               tableRunner(Table2),
	"table3":               tableRunner(Table3),
	"fig3":                 textRunner(Fig3),
	"fig4":                 textRunner(Fig4),
	"fig5a":                figureRunner(Fig5a),
	"fig5b":                figureRunner(Fig5b),
	"fig5c":                figureRunner(Fig5c),
	"fig6":                 figureRunner(Fig6),
	"fig7":                 figureRunner(Fig7),
	"ablation-shuffle":     tableRunner(AblationShuffleCost),
	"ablation-aggs":        tableRunner(AblationAggregatorCount),
	"ablation-auth":        tableRunner(AblationAuthCost),
	"ablation-keyspace":    tableRunner(AblationKeySpace),
	"ablation-knownmapper": tableRunner(AblationKnownMapper),
	"ablation-dropout":     tableRunner(AblationDropout),
	"ablation-geo":         tableRunner(AblationGeoLatency),
	"ablation-labels":      tableRunner(AblationLabelInference),
	"ablation-ldp":         tableRunner(AblationLDP),
	"churn":                tableRunner(ChurnSweep),
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID, rendering it in format fm.
func Run(id string, sc Scale, fm Format, w io.Writer) error {
	r, ok := Registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(sc, fm, w)
}

// RunAll executes every registered experiment, rendering each in format
// fm under a "### experiment <id>" header.
func RunAll(sc Scale, fm Format, w io.Writer) error {
	for _, id := range IDs() {
		fmt.Fprintf(w, "### experiment %s\n", id)
		if err := Run(id, sc, fm, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
	}
	return nil
}
