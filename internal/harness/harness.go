// Package harness defines the experiment registry that regenerates the
// paper's evaluation artifacts. The paper's only results exhibit is
// Table 1 (six asymptotic results across three degree regimes; there are
// no figures), plus several in-text claims (§3.1 building-block costs,
// blackboard and no-duplication savings, the §5 testing-vs-exact
// comparison, and the §4.2.2 streaming corollary).
//
// Each experiment measures communication on parameter sweeps and reports
// the scaling against the paper's predicted law; DESIGN.md §4 maps
// experiment ids (E1…E15) to Table 1 rows, and EXPERIMENTS.md records
// paper-vs-measured for each.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"tricomm/internal/harness/runner"
	"tricomm/internal/parwork"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment id (E1…E15).
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim cites the bound/claim being reproduced.
	PaperClaim string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows (stringified).
	Rows [][]string
	// Notes carry fits, thresholds and caveats.
	Notes []string
}

// AddRow appends a data row, stringifying each cell with %v (floats get
// %.4g).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (quotes are not needed
// for our cell contents, which are numeric or simple identifiers).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RunConfig controls an experiment run.
type RunConfig struct {
	// Seed drives all randomness; identical seeds give identical tables.
	Seed uint64
	// Quick shrinks the sweeps for CI/benchmark use.
	Quick bool
	// Trials overrides the per-point repetition count when positive.
	Trials int
	// Jobs is the trial worker-pool width; ≤ 0 means GOMAXPROCS. Tables
	// are bit-identical at every value (see internal/harness/runner).
	Jobs int
	// IntraWorkers fans a single trial's graph kernels (triangle counts,
	// certificate audits) across goroutines; ≤ 0 defers to
	// TRICOMM_INTRA_WORKERS, then 1. The parallel kernels are
	// bit-identical to the serial ones, so tables never depend on it.
	IntraWorkers int
}

// jobs returns the normalized worker count.
func (c RunConfig) jobs() int { return runner.Jobs(c.Jobs) }

// intraWorkers returns the normalized intra-trial worker count.
func (c RunConfig) intraWorkers() int { return parwork.Workers(c.IntraWorkers) }

func (c RunConfig) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick && def > 2 {
		return 2
	}
	return def
}

// Experiment is a registered, reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier (E1…E15).
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim cites what is being reproduced.
	PaperClaim string
	// Run executes the experiment. The context cancels the trial workers
	// (SIGINT in cmd/benchtable); cancellation surfaces as ctx.Err().
	Run func(ctx context.Context, cfg RunConfig) (*Table, error)
}

// registry is populated by the experiment files' register calls at
// package initialization via variable initializers (no init functions).
var registry = buildRegistry()

// All returns every registered experiment, ordered by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders E2 before E10 (numeric suffix order, then lexical).
func idLess(a, b string) bool {
	na, sa := splitID(a)
	nb, sb := splitID(b)
	if na != nb {
		return na < nb
	}
	return sa < sb
}

func splitID(id string) (int, string) {
	n := 0
	i := 1
	for i < len(id) && id[i] >= '0' && id[i] <= '9' {
		n = n*10 + int(id[i]-'0')
		i++
	}
	return n, id[i:]
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
