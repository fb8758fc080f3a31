package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dualvdd"
)

// SweepSchema versions the sweep report JSON; bump on breaking changes.
const SweepSchema = "dualvdd-sweep/1"

// SweepRow is one (point, algorithm) cell of a sweep report: the axis values
// that define the point, the algorithm's measured results, and the Pareto
// flag. It is flat on purpose — every field prints as one CSV column, and
// the JSON form is the machine-readable mirror of the same table.
type SweepRow struct {
	// Index is the point's position in Sweep expansion order; rows of one
	// point share it.
	Index int `json:"index"`
	// Circuit is the design name.
	Circuit string `json:"circuit"`
	// Vhigh, Vlow, SlackFactor, SimWords and Seed locate the point on the
	// sweep's axes.
	Vhigh       float64 `json:"vhigh"`
	Vlow        float64 `json:"vlow"`
	SlackFactor float64 `json:"slack_factor"`
	SimWords    int     `json:"sim_words"`
	Seed        uint64  `json:"seed"`
	// Rails is the point's full supply table for multi-rail points (three or
	// more rails); empty for classic two-rail points, keeping their JSON
	// bytes exactly what they were.
	Rails []float64 `json:"rails,omitempty"`
	// Algorithm names the row's scaling algorithm.
	Algorithm string `json:"algorithm"`
	// Cached reports the point was served from the runner's result cache.
	Cached bool `json:"cached,omitempty"`
	// PowerUW is the post-scaling power in microwatts; ImprovePct the
	// improvement over the point's own original power.
	PowerUW    float64 `json:"power_uw"`
	ImprovePct float64 `json:"improve_pct"`
	// WorstSlackNs is the verified timing margin left after scaling.
	WorstSlackNs float64 `json:"worst_slack_ns"`
	// Gates/LowGates/LCs/Sized/LowRatio/AreaIncrease mirror FlowResult.
	Gates        int     `json:"gates"`
	LowGates     int     `json:"low_gates"`
	LCs          int     `json:"lcs"`
	Sized        int     `json:"sized"`
	LowRatio     float64 `json:"low_ratio"`
	AreaIncrease float64 `json:"area_increase"`
	// RailGates and LCCross are the multi-rail breakdown (gates per rail
	// index, level converters per crossed rail pair); empty for two-rail
	// rows, mirroring FlowResult.
	RailGates []int                `json:"rail_gates,omitempty"`
	LCCross   []dualvdd.LCCrossing `json:"lc_crossings,omitempty"`
	// Pareto marks the row as non-dominated within its circuit on
	// (power min, worst slack max, LC count min).
	Pareto bool `json:"pareto"`
}

// SweepResult is the aggregated report of one sweep: every row in expansion
// order, with Pareto frontiers extracted per circuit.
type SweepResult struct {
	Schema string `json:"schema"`
	// Points is the expanded grid size (rows may exceed it: one row per
	// point per algorithm).
	Points int        `json:"points"`
	Rows   []SweepRow `json:"rows"`
}

// BuildSweep flattens sweep results into the report model and marks the
// per-circuit Pareto frontier. Rows keep expansion order (point order, then
// algorithm order within the point). The frontier is computed across all of
// a circuit's rows — every (config, algorithm) pair competes on power,
// remaining worst slack and level-converter count; see dualvdd.ParetoMask
// for the dominance rule.
func BuildSweep(results []dualvdd.SweepPointResult) *SweepResult {
	sr := &SweepResult{Schema: SweepSchema, Points: len(results)}
	// keys carries each row's circuit identity for frontier grouping — two
	// inline-BLIF circuits may share a display name but never a frontier.
	var keys []dualvdd.SweepCircuit
	for _, pr := range results {
		if pr.Status == nil {
			continue // error hole from an aborted sweep
		}
		name := pr.Point.Circuit.Benchmark
		if d := pr.Status.Design; d != nil {
			name = d.Name
		}
		for _, fr := range pr.Status.Results {
			if math.IsNaN(fr.WorstSlack) || math.IsNaN(fr.Power) {
				// A NaN objective is never a result — the flow errors on a
				// violated constraint instead of reporting one — so a row
				// carrying it is a malformed input (a hand-built status, a
				// corrupted decode). Rejected here: it must not reach the
				// frontier, the CSV, or downstream tooling as data.
				continue
			}
			keys = append(keys, pr.Point.Circuit)
			sr.Rows = append(sr.Rows, SweepRow{
				Index:        pr.Point.Index,
				Circuit:      name,
				Vhigh:        pr.Point.Config.Vhigh,
				Vlow:         pr.Point.Config.Vlow,
				Rails:        append([]float64(nil), pr.Point.Config.Rails...),
				SlackFactor:  pr.Point.Config.SlackFactor,
				SimWords:     pr.Point.Config.SimWords,
				Seed:         pr.Point.Config.Seed,
				Algorithm:    fr.Algorithm,
				Cached:       pr.Status.Cached,
				PowerUW:      fr.Power * 1e6,
				ImprovePct:   fr.ImprovePct,
				WorstSlackNs: fr.WorstSlack,
				Gates:        fr.Gates,
				LowGates:     fr.LowGates,
				LCs:          fr.LCs,
				Sized:        fr.Sized,
				LowRatio:     fr.LowRatio,
				AreaIncrease: fr.AreaIncrease,
				RailGates:    append([]int(nil), fr.RailGates...),
				LCCross:      append([]dualvdd.LCCrossing(nil), fr.LCCross...),
			})
		}
	}
	markPareto(sr.Rows, keys)
	return sr
}

// markPareto sets the Pareto flag per circuit; keys[i] is row i's circuit
// identity.
func markPareto(rows []SweepRow, keys []dualvdd.SweepCircuit) {
	byCircuit := map[dualvdd.SweepCircuit][]int{}
	for i := range rows {
		byCircuit[keys[i]] = append(byCircuit[keys[i]], i)
	}
	//lint:nondeterministic-ok each circuit writes disjoint row indices; output is order-free
	for _, idx := range byCircuit {
		pts := make([]dualvdd.ParetoPoint, len(idx))
		for k, i := range idx {
			pts[k] = dualvdd.ParetoPoint{
				Power:      rows[i].PowerUW,
				WorstSlack: rows[i].WorstSlackNs,
				LCs:        rows[i].LCs,
			}
		}
		for k, keep := range dualvdd.ParetoMask(pts) {
			rows[idx[k]].Pareto = keep
		}
	}
}

// ParetoRows returns only the frontier rows, in input order.
func (s *SweepResult) ParetoRows() []SweepRow {
	var out []SweepRow
	for _, r := range s.Rows {
		if r.Pareto {
			out = append(out, r)
		}
	}
	return out
}

// WriteJSON emits the report as one JSON document with a trailing newline.
func (s *SweepResult) WriteJSON(w io.Writer) error {
	return WriteJSON(w, s)
}

// sweepCSVHeader is the fixed CSV column set, one column per SweepRow field.
// The multi-rail columns trail the classic set, so two-rail consumers keep
// their column positions; on two-rail rows the trailing cells are empty.
var sweepCSVHeader = []string{
	"index", "circuit", "vhigh", "vlow", "slack_factor", "sim_words", "seed",
	"algorithm", "cached", "power_uw", "improve_pct", "worst_slack_ns",
	"gates", "low_gates", "lcs", "sized", "low_ratio", "area_increase", "pareto",
	"rails", "rail_gates", "lc_crossings",
}

// railsCell joins a rail table for one CSV cell ("5;4.3;3.6"); empty for
// two-rail rows.
func railsCell(rails []float64) string {
	parts := make([]string, len(rails))
	for i, r := range rails {
		parts[i] = strconv.FormatFloat(r, 'g', -1, 64)
	}
	return strings.Join(parts, ";")
}

// railGatesCell joins the per-rail gate counts ("12;5;3").
func railGatesCell(counts []int) string {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ";")
}

// lcCrossCell encodes the crossing counts ("2>0:4;1>0:2" — four converters
// restoring rail 2 to rail 0, two restoring rail 1 to rail 0).
func lcCrossCell(cross []dualvdd.LCCrossing) string {
	parts := make([]string, len(cross))
	for i, c := range cross {
		parts[i] = fmt.Sprintf("%d>%d:%d", c.From, c.To, c.LCs)
	}
	return strings.Join(parts, ";")
}

// WriteCSV emits the report as RFC-4180 CSV with a header row. Floats use
// the shortest round-trip representation ('g', 64-bit), so a CSV row carries
// exactly the bits the JSON form does.
func (s *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range s.Rows {
		rec := []string{
			strconv.Itoa(r.Index), r.Circuit,
			f(r.Vhigh), f(r.Vlow), f(r.SlackFactor),
			strconv.Itoa(r.SimWords), strconv.FormatUint(r.Seed, 10),
			r.Algorithm, strconv.FormatBool(r.Cached),
			f(r.PowerUW), f(r.ImprovePct), f(r.WorstSlackNs),
			strconv.Itoa(r.Gates), strconv.Itoa(r.LowGates),
			strconv.Itoa(r.LCs), strconv.Itoa(r.Sized),
			f(r.LowRatio), f(r.AreaIncrease), strconv.FormatBool(r.Pareto),
			railsCell(r.Rails), railGatesCell(r.RailGates), lcCrossCell(r.LCCross),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSweepTable renders a human-readable table grouped by circuit, the
// CLI's default output. Frontier rows carry a trailing '*'. When any row ran
// on more than two rails, a trailing rails column shows each row's full
// supply table with its per-rail gate split and crossing counts; pure
// two-rail tables keep the classic column set.
func WriteSweepTable(w io.Writer, s *SweepResult) error {
	multi := false
	for _, r := range s.Rows {
		if len(r.Rails) > 0 {
			multi = true
			break
		}
	}
	ew := &errW{w: w}
	ew.p("%-10s %5s %5s %6s %6s %-7s %10s %8s %9s %5s %7s",
		"circuit", "vddh", "vddl", "slack", "words", "algo",
		"power(uW)", "saved%", "slack(ns)", "LCs", "pareto")
	if multi {
		ew.p("  %s", "rails gates@rail lc-crossings")
	}
	ew.p("\n")
	for _, r := range s.Rows {
		star := ""
		if r.Pareto {
			star = "*"
		}
		cached := ""
		if r.Cached {
			cached = " (cached)"
		}
		ew.p("%-10s %5.2f %5.2f %6.2f %6d %-7s %10.2f %8.2f %9.4f %5d %7s%s",
			r.Circuit, r.Vhigh, r.Vlow, r.SlackFactor, r.SimWords, r.Algorithm,
			r.PowerUW, r.ImprovePct, r.WorstSlackNs, r.LCs, star, cached)
		if multi && len(r.Rails) > 0 {
			ew.p("  %s %s %s", railsCell(r.Rails), railGatesCell(r.RailGates), lcCrossCell(r.LCCross))
		}
		ew.p("\n")
	}
	if ew.err == nil {
		_, ew.err = fmt.Fprintf(w, "%d rows, %d on the Pareto frontier\n",
			len(s.Rows), len(s.ParetoRows()))
	}
	return ew.err
}
