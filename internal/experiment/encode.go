package experiment

import (
	"cmp"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"asbr/internal/cpu"
	"asbr/internal/obs"
	"asbr/internal/workload"
)

// This file defines every table the reproduction produces, in the one
// form all consumers read: the Sweep's table methods build these rows,
// `asbr-tables` renders them as text or marshals them with -json, and
// the serving layer's /v1/sweep response and the cluster merge carry
// the same *TablesJSON, so the shape of a sweep cannot drift between
// the CLI and the daemon.

// Table names accepted by (*Sweep).Tables, in reporting order.
const (
	TableFig6           = "fig6"
	TableFig7           = "fig7"
	TableFig9           = "fig9"
	TableFig10          = "fig10"
	TableFig11          = "fig11"
	TablePower          = "power"
	TableMotivation     = "motivation"
	TableAblations      = "ablations"
	TableFaults         = "faults"
	TablePredictability = "predictability"
)

// TableNames lists every table name, in the order Tables runs them.
func TableNames() []string {
	return []string{TableFig6, TableFig7, TableFig9, TableFig10, TableFig11,
		TablePower, TableMotivation, TableAblations, TableFaults,
		TablePredictability}
}

// RenderText writes one table in the asbr-tables house style: a title
// line, a tabwriter-aligned header + rows block, and a trailing blank
// line. asbr-tables' figure renderers and asbr-dse's Pareto front
// share this shape, so every table the project prints aligns the same
// way.
func RenderText(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// CellError is a failed table cell in machine-readable form: the
// *cpu.SimError code when the failure came from the simulator (so
// clients can dispatch on it), "error" otherwise, plus the message.
type CellError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// EncodeCellError converts a cell error. Nil maps to nil so healthy
// cells marshal without an error field.
func EncodeCellError(err error) *CellError {
	if err == nil {
		return nil
	}
	code := "error"
	if c := cpu.CodeOf(err); c != cpu.ErrNone {
		code = c.String()
	}
	return &CellError{Code: code, Message: err.Error()}
}

// Fig6JSON is one encoded Figure 6 cell: the embedded canonical
// snapshot flattens to the historical cycles/cpi/accuracy keys plus
// the full counter set. The struct stays comparable (all scalars).
type Fig6JSON struct {
	Benchmark string `json:"benchmark"`
	Predictor string `json:"predictor"`
	obs.Snapshot
	Error *CellError `json:"error,omitempty"`
}

// BranchJSON is one encoded selected-branch row (Figures 7/9/10).
type BranchJSON struct {
	Index      int                `json:"index"`
	PC         uint32             `json:"pc"`
	Exec       uint64             `json:"exec"`
	Taken      float64            `json:"taken"`
	Accuracy   map[string]float64 `json:"accuracy"`
	Distance   int                `json:"distance"`
	CrossBlock bool               `json:"cross_block"`
}

// BranchTableJSON is one encoded selected-branch table.
type BranchTableJSON struct {
	Figure    string       `json:"figure"`
	Benchmark string       `json:"benchmark"`
	Shadows   []string     `json:"shadows"`
	Rows      []BranchJSON `json:"rows"`
}

// Fig11JSON is one encoded Figure 11 cell. The embedded snapshot
// provides the folded run's full statistics (including the historical
// cycles key); folds/fallbacks/folded_frac remain the ASBR engine's
// own counters, distinct from the snapshot's CPU-side folded keys.
type Fig11JSON struct {
	Benchmark string `json:"benchmark"`
	Aux       string `json:"aux"` // auxiliary predictor used with ASBR
	obs.Snapshot
	Baseline     uint64     `json:"baseline"` // the paper's comparison base for this row
	BaselineName string     `json:"baseline_name"`
	Improvement  float64    `json:"improvement"` // 1 - cycles/baseline
	Folds        uint64     `json:"folds"`
	Fallbacks    uint64     `json:"fallbacks"`
	FoldedFrac   float64    `json:"folded_frac"` // folded / dynamic conditional branches
	Error        *CellError `json:"error,omitempty"`
}

// EnergyJSON is the power model's per-component breakdown.
type EnergyJSON struct {
	Pipeline  float64 `json:"pipeline"`
	WrongPath float64 `json:"wrong_path"`
	Predictor float64 `json:"predictor"`
	BTB       float64 `json:"btb"`
	BIT       float64 `json:"bit"`
	BDT       float64 `json:"bdt"`
	Caches    float64 `json:"caches"`
	Total     float64 `json:"total"`
}

// PowerJSON is one encoded power/area row.
type PowerJSON struct {
	Benchmark    string     `json:"benchmark"`
	Config       string     `json:"config"`
	Cycles       uint64     `json:"cycles"`
	Instructions uint64     `json:"instructions"`
	WrongPath    uint64     `json:"wrong_path"`
	Energy       EnergyJSON `json:"energy"`
	AreaBits     int        `json:"area_bits"`
	Error        *CellError `json:"error,omitempty"`
}

// MotivationRowJSON is one encoded Figure 1 branch.
type MotivationRowJSON struct {
	Name     string  `json:"name"`
	PC       uint32  `json:"pc"`
	Exec     uint64  `json:"exec"`
	Bimodal  float64 `json:"bimodal"` // accuracy
	GShare   float64 `json:"gshare"`
	FoldRate float64 `json:"fold_rate"` // folds / executions under ASBR
}

// MotivationJSON is the encoded §3 reproduction.
type MotivationJSON struct {
	Rows           []MotivationRowJSON `json:"rows"`
	BaselineCycles uint64              `json:"baseline_cycles"`
	ASBRCycles     uint64              `json:"asbr_cycles"`
	AccMatch       bool                `json:"acc_match"` // folded run computes the same acc
}

// ThresholdJSON is one encoded BDT-update-point row.
type ThresholdJSON struct {
	Update    string `json:"update"`
	Threshold int    `json:"threshold"`
	Cycles    uint64 `json:"cycles"`
	Folds     uint64 `json:"folds"`
	Fallbacks uint64 `json:"fallbacks"`
}

// BITSizeJSON is one encoded BIT-capacity row.
type BITSizeJSON struct {
	Entries uint64 `json:"entries"`
	K       int    `json:"k"`
	Cycles  uint64 `json:"cycles"`
	Folds   uint64 `json:"folds"`
}

// SchedulingJSON is one encoded §5.1 scheduling row.
type SchedulingJSON struct {
	Label       string  `json:"label"`
	Cycles      uint64  `json:"cycles"`
	Baseline    uint64  `json:"baseline"`
	Improvement float64 `json:"improvement"`
	Folds       uint64  `json:"folds"`
	Candidates  int     `json:"candidates"`
}

// ValidityJSON is one encoded validity-counter row.
type ValidityJSON struct {
	Label         string `json:"label"`
	Cycles        uint64 `json:"cycles"`
	Folds         uint64 `json:"folds"`
	Fallbacks     uint64 `json:"fallbacks"`
	OutputCorrect bool   `json:"output_correct"`
}

// AblationsJSON bundles the four ablation studies with the benchmark
// each one runs on.
type AblationsJSON struct {
	ThresholdBench  string           `json:"threshold_bench"`
	Threshold       []ThresholdJSON  `json:"threshold"`
	BITSizeBench    string           `json:"bit_size_bench"`
	BITSize         []BITSizeJSON    `json:"bit_size"`
	SchedulingBench string           `json:"scheduling_bench"`
	Scheduling      []SchedulingJSON `json:"scheduling"`
	ValidityBench   string           `json:"validity_bench"`
	Validity        []ValidityJSON   `json:"validity"`
}

// FaultJSON is one encoded reliability cell.
type FaultJSON struct {
	Benchmark string     `json:"benchmark"`
	Plan      string     `json:"plan"`
	Injected  int        `json:"injected"` // faults actually injected
	Diverged  bool       `json:"diverged"`
	PC        uint32     `json:"pc"`
	Cycle     uint64     `json:"cycle"`
	Commits   uint64     `json:"commits"`
	BaseError *CellError `json:"base_error,omitempty"`
	TestError *CellError `json:"test_error,omitempty"`
	Error     *CellError `json:"error,omitempty"` // the pair could not run at all
}

// PredictabilityBranchJSON is one encoded static-branch verdict.
type PredictabilityBranchJSON struct {
	PC           uint32             `json:"pc"`
	Exec         uint64             `json:"exec"`
	Taken        float64            `json:"taken"`         // taken-outcome fraction
	FoldEligible bool               `json:"fold_eligible"` // in the benchmark's BIT fold set
	FoldRate     float64            `json:"fold_rate"`     // executions the ASBR front-end folded
	Accuracy     map[string]float64 `json:"accuracy"`      // shadow role -> accuracy
	Best         string             `json:"best"`          // most accurate dynamic shadow role
	BestAccuracy float64            `json:"best_accuracy"`
	Mispredicts  uint64             `json:"mispredicts"` // best shadow's misses
	Rescued      uint64             `json:"rescued"`     // misses removed by folding
	CycleCost    uint64             `json:"cycle_cost"`  // misses priced at the flush penalty
	Class        string             `json:"class"`
}

// PredictabilityJSON is one benchmark's encoded classification.
type PredictabilityJSON struct {
	Benchmark string                     `json:"benchmark"`
	Shadows   map[string]string          `json:"shadows"` // role -> predictor name
	Rows      []PredictabilityBranchJSON `json:"rows"`
	Classes   map[string]int             `json:"classes"` // class -> static branch count

	// BestMispredicts sums each branch's best-dynamic miss count;
	// RescuedMispredicts is the subset removed by ASBR folding, and
	// RescuedFrac their ratio — the headline "mispredictions no dynamic
	// predictor in the zoo avoids, that folding removes". RescuedCycles
	// prices the rescued misses at the flush penalty.
	BestMispredicts    uint64     `json:"best_mispredicts"`
	RescuedMispredicts uint64     `json:"rescued_mispredicts"`
	RescuedFrac        float64    `json:"rescued_frac"`
	RescuedCycles      uint64     `json:"rescued_cycles"`
	Error              *CellError `json:"error,omitempty"`
}

// TablesJSON is a full machine-readable sweep: the options it ran
// under plus every requested table. Absent tables marshal as absent
// fields; a table that failed outright is reported in Errors while the
// others still carry their rows.
type TablesJSON struct {
	Samples int    `json:"samples"`
	Seed    int64  `json:"seed"`
	Update  string `json:"update"`

	Fig6       []Fig6JSON       `json:"fig6,omitempty"`
	Fig7       *BranchTableJSON `json:"fig7,omitempty"`
	Fig9       *BranchTableJSON `json:"fig9,omitempty"`
	Fig10      *BranchTableJSON `json:"fig10,omitempty"`
	Fig11      []Fig11JSON      `json:"fig11,omitempty"`
	Power      []PowerJSON      `json:"power,omitempty"`
	Motivation *MotivationJSON  `json:"motivation,omitempty"`
	Ablations  *AblationsJSON   `json:"ablations,omitempty"`
	Faults     []FaultJSON      `json:"faults,omitempty"`

	Predictability []PredictabilityJSON `json:"predictability,omitempty"`

	// Errors lists table-level failures ("<table>: reason"). Cell-level
	// failures live on the cells themselves.
	Errors []string `json:"errors,omitempty"`

	canceled bool // see Canceled; not encoded
}

// Canceled reports whether a simulation behind these tables hit the
// sweep's wall-clock budget (Options.Timeout), failing a cell or a
// table: an outcome that depends on host load, so a rerun may differ.
// It is known only to the process that ran the sweep.
func (t *TablesJSON) Canceled() bool { return t.canceled }

// HasErrors reports whether the sweep carries any table- or
// cell-level failure.
func (t *TablesJSON) HasErrors() bool {
	return len(t.Errors) > 0 || firstCellError(t) != nil
}

// Snapshots yields the embedded obs.Snapshot of every healthy
// per-benchmark cell (Figure 6 and Figure 11 rows) for callers that
// fold sweep work into service-lifetime totals with
// obs.Snapshot.Accumulate. Failed cells are skipped: their snapshots
// are all-zero and carry no measured work.
func (t *TablesJSON) Snapshots() []obs.Snapshot {
	var out []obs.Snapshot
	for _, r := range t.Fig6 {
		if r.Error == nil {
			out = append(out, r.Snapshot)
		}
	}
	for _, r := range t.Fig11 {
		if r.Error == nil {
			out = append(out, r.Snapshot)
		}
	}
	return out
}

// NormalizeTableNames expands "all"/empty to every table, lower-cases,
// de-duplicates preserving the canonical order, and rejects unknown
// names.
func NormalizeTableNames(names []string) ([]string, error) {
	if len(names) == 0 {
		return TableNames(), nil
	}
	want := make(map[string]bool)
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "all" {
			return TableNames(), nil
		}
		known := false
		for _, k := range TableNames() {
			if n == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("experiment: unknown table %q (want %s or all)",
				n, strings.Join(TableNames(), "|"))
		}
		want[n] = true
	}
	var out []string
	for _, k := range TableNames() {
		if want[k] {
			out = append(out, k)
		}
	}
	return out, nil
}

// Tables runs the named tables ("all" or nil = every table) on the
// sweep and returns the machine-readable result. Table generators that
// fail outright are recorded in Errors; generators that return
// annotated cell errors keep their rows. The returned error is the
// first failure (table- or cell-level) for callers that treat any
// failure as fatal — the TablesJSON is complete either way.
func (s *Sweep) Tables(names []string) (*TablesJSON, error) {
	sel, err := NormalizeTableNames(names)
	if err != nil {
		return nil, err
	}
	out := &TablesJSON{
		Samples: s.opt.Samples,
		Seed:    s.opt.Seed,
		Update:  s.opt.Update.String(),
	}
	var first error
	for _, name := range sel {
		var err error
		switch name {
		case TableFig6:
			out.Fig6, err = s.Fig6()
		case TableFig7:
			out.Fig7, err = s.SelectedBranches(name, workload.G721Encode)
		case TableFig9:
			out.Fig9, err = s.SelectedBranches(name, workload.ADPCMEncode)
		case TableFig10:
			out.Fig10, err = s.SelectedBranches(name, workload.ADPCMDecode)
		case TableFig11:
			out.Fig11, err = s.Fig11()
		case TablePower:
			out.Power, err = s.PowerArea()
		case TableMotivation:
			out.Motivation, err = s.Motivation()
		case TableAblations:
			out.Ablations, err = s.ablations()
		case TableFaults:
			out.Faults, err = s.Faults()
		case TablePredictability:
			out.Predictability, err = s.Predictability()
		}
		if err != nil {
			out.Errors = append(out.Errors, fmt.Sprintf("%s: %v", name, err))
			first = cmp.Or(first, err)
		}
	}
	out.canceled = s.canceled.Load()
	return out, cmp.Or(first, firstCellError(out))
}

// firstCellError returns an error describing the first annotated cell
// failure, or nil when every cell is healthy.
func firstCellError(t *TablesJSON) error {
	for _, r := range t.Fig6 {
		if r.Error != nil {
			return fmt.Errorf("fig6 %s/%s: %s", r.Benchmark, r.Predictor, r.Error.Message)
		}
	}
	for _, r := range t.Fig11 {
		if r.Error != nil {
			return fmt.Errorf("fig11 %s/%s: %s", r.Benchmark, r.Aux, r.Error.Message)
		}
	}
	for _, r := range t.Power {
		if r.Error != nil {
			return fmt.Errorf("power %s/%s: %s", r.Benchmark, r.Config, r.Error.Message)
		}
	}
	for _, r := range t.Faults {
		if r.Error != nil {
			return fmt.Errorf("faults %s/%s: %s", r.Benchmark, r.Plan, r.Error.Message)
		}
	}
	for _, r := range t.Predictability {
		if r.Error != nil {
			return fmt.Errorf("predictability %s: %s", r.Benchmark, r.Error.Message)
		}
	}
	return nil
}
