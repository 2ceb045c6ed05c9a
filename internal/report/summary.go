package report

import (
	"symsim/internal/core"
)

// ResultSummary is the JSON-serializable digest of a finished analysis:
// what the job service persists, caches and serves at /jobs/{id}/result.
// It carries the paper's dichotomy metrics plus the full tie-off list, so the
// bespoke-pruning flow can run from a served result without re-analyzing.
type ResultSummary struct {
	Design string `json:"design"`
	Bench  string `json:"bench"`
	Policy string `json:"policy"`

	// Complete=false means a budget tripped or the run was interrupted;
	// the dichotomy is sound but over-approximate, and such results are
	// never admitted to the content-addressed cache.
	Complete bool `json:"complete"`

	TotalGates       int     `json:"totalGates"`
	ExercisableCount int     `json:"exercisableGates"`
	ReductionPct     float64 `json:"reductionPct"`

	PathsCreated    int    `json:"pathsCreated"`
	PathsSkipped    int    `json:"pathsSkipped"`
	SimulatedCycles uint64 `json:"simulatedCycles"`
	CSMStates       int    `json:"csmStates"`

	// TieOffs lists every gate proven unexercisable with the constant its
	// output is tied to (the input to bespoke re-synthesis).
	TieOffs []TieOffView `json:"tieOffs"`

	// Degradation is present only when Complete is false.
	Degradation *DegradationView `json:"degradation,omitempty"`
}

// TieOffView is one unexercisable gate and its tie-off constant.
type TieOffView struct {
	Gate  string `json:"gate"`
	Value string `json:"value"`
}

// DegradationView summarizes how an incomplete run was kept sound.
type DegradationView struct {
	Trip         string `json:"trip"`
	PendingPaths int    `json:"pendingPaths"`
	ForcedMerges int    `json:"forcedMerges"`
	ConeNets     int    `json:"coneNets"`
	ConeGates    int    `json:"coneGates"`
	Quarantined  int    `json:"quarantined"`
}

// Summarize flattens the result of analyzing design/bench into its
// digest. Tie-off gates are identified by the name of the net they drive, which the
// canonical netlist hash guarantees is stable only in structure — the
// names are for humans; resubmission equality is by value list order,
// which TieOffs() emits in gate-index order deterministically.
func Summarize(design, bench string, res *core.Result) *ResultSummary {
	sum := &ResultSummary{
		Design:           design,
		Bench:            bench,
		Policy:           res.Policy,
		Complete:         res.Complete,
		TotalGates:       res.TotalGates,
		ExercisableCount: res.ExercisableCount,
		ReductionPct:     res.ReductionPct(),
		PathsCreated:     res.PathsCreated,
		PathsSkipped:     res.PathsSkipped,
		SimulatedCycles:  res.SimulatedCycles,
		CSMStates:        res.CSMStates,
	}
	for _, t := range res.TieOffs() {
		sum.TieOffs = append(sum.TieOffs, TieOffView{
			Gate:  res.Design.NetName(res.Design.Gates[t.Gate].Out),
			Value: t.Value.String(),
		})
	}
	if d := res.Degradation; d != nil {
		sum.Degradation = &DegradationView{
			Trip:         d.Trip.String(),
			PendingPaths: d.PendingPaths,
			ForcedMerges: d.ForcedMerges,
			ConeNets:     d.ConeNets,
			ConeGates:    d.ConeGates,
			Quarantined:  len(d.Quarantined),
		}
	}
	return sum
}
