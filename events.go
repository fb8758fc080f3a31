package dualvdd

// Event is a progress notification from the flow. The concrete types are
// EventMapped, EventMove, EventRoundDone and EventResult; observers switch on
// the type:
//
//	flow := dualvdd.New(dualvdd.WithObserver(func(ev dualvdd.Event) {
//		switch e := ev.(type) {
//		case dualvdd.EventRoundDone:
//			fmt.Printf("%s %s round %d: %d low gates\n",
//				e.Circuit, e.Algorithm, e.Round, e.LowGates)
//		}
//	}))
//
// Events are emitted synchronously from the algorithm loops: an observer must
// be cheap and must not call back into the emitting Design. When a Design is
// evaluated through Batch (or internal/harness at Workers > 1), the observer
// is invoked concurrently from multiple worker goroutines and must be safe
// for concurrent use — wrap it with a mutex if it writes shared state.
type Event interface{ isEvent() }

// EventMapped reports a prepared design: the circuit has been technology
// mapped against the dual-voltage library, relaxed to its timing constraint
// and measured for original power. Emitted once per Prepare.
type EventMapped struct {
	// Circuit is the design name.
	Circuit string `json:"circuit"`
	// Gates is the number of live mapped gates.
	Gates int `json:"gates"`
	// MinDelay is the minimum-delay mapping's critical path (ns); Tspec the
	// relaxed constraint handed to the algorithms.
	MinDelay float64 `json:"min_delay_ns"`
	Tspec    float64 `json:"tspec_ns"`
	// OrgPower is the single-supply power in watts.
	OrgPower float64 `json:"org_power_w"`
}

// EventMove reports one accepted per-gate move: a supply lowering inside a
// CVS sweep or a Dscale round. Nested CVS runs (the initial clustering of
// Dscale, Gscale's TCB pushes) report under the outer algorithm's name with
// the outer round number.
type EventMove struct {
	Circuit   string `json:"circuit"`
	Algorithm string `json:"algorithm"`
	// Round is the iteration the move belongs to (0 = the initial nested
	// CVS clustering of Dscale/Gscale).
	Round int `json:"round"`
	// Gate is the lowered gate's index in Design.Circuit's gate table.
	Gate int `json:"gate"`
}

// EventRoundDone reports one finished algorithm iteration: a Dscale
// slack-harvesting round or a Gscale TCB push (CVS emits a single round for
// its one sweep).
type EventRoundDone struct {
	Circuit   string `json:"circuit"`
	Algorithm string `json:"algorithm"`
	Round     int    `json:"round"`
	// Moves counts the iteration's accepted moves — lowered gates for
	// CVS/Dscale, resized gates for Gscale.
	Moves int `json:"moves"`
	// LowGates is the current number of ordinary gates at Vlow.
	LowGates int `json:"low_gates"`
	// Power is the current total-power estimate in watts where the loop has
	// activity data at hand (Dscale rounds); 0 means "not computed".
	Power float64 `json:"power_w"`
	// STAEvals is the cumulative incremental-timing evaluation count.
	STAEvals int64 `json:"sta_evals"`
	// WorstArrival is the current critical-path arrival time (ns).
	WorstArrival float64 `json:"worst_arrival_ns"`
}

// EventResult reports a finished algorithm run with its verified result.
// Emitted once per Run* call, after the final timing check and power
// measurement.
type EventResult struct {
	Circuit string      `json:"circuit"`
	Result  *FlowResult `json:"result"`
}

// EventSweepPoint reports one completed point of a design-space sweep: the
// point's position in the expanded grid, the axis values that define it, and
// the per-algorithm results. Points complete in worker order, so indices
// arrive out of order; Sweep.Run still aggregates results in input order.
type EventSweepPoint struct {
	// Index is the point's position in Sweep.Points order; Total the size of
	// the expanded grid.
	Index int `json:"index"`
	Total int `json:"total"`
	// Circuit is the design name the point ran on.
	Circuit string `json:"circuit"`
	// Vhigh, Vlow, SlackFactor and SimWords are the point's axis values.
	Vhigh       float64 `json:"vhigh"`
	Vlow        float64 `json:"vlow"`
	SlackFactor float64 `json:"slack_factor"`
	SimWords    int     `json:"sim_words"`
	// Rails is the point's full supply table for multi-rail points (three or
	// more rails); empty for classic two-rail points, whose Vhigh/Vlow say
	// everything — so two-rail envelopes keep their exact legacy bytes.
	Rails []float64 `json:"rails,omitempty"`
	// Algorithms is the point's algorithm set, in execution order.
	Algorithms []Algorithm `json:"algorithms"`
	// Cached reports that the runner answered the point from its
	// content-addressed result cache without recomputation.
	Cached bool `json:"cached,omitempty"`
	// Results holds one FlowResult per algorithm, in request order. Like all
	// job-surface results they never carry a Circuit.
	Results []*FlowResult `json:"results"`
}

// EventSweepDone reports a finished sweep: how many points ran, how many were
// answered from the runner's cache, and across how many distinct circuits.
type EventSweepDone struct {
	Points   int `json:"points"`
	Cached   int `json:"cached"`
	Circuits int `json:"circuits"`
}

func (EventMapped) isEvent()     {}
func (EventMove) isEvent()       {}
func (EventRoundDone) isEvent()  {}
func (EventResult) isEvent()     {}
func (EventSweepPoint) isEvent() {}
func (EventSweepDone) isEvent()  {}

// Observer receives flow progress events. A nil Observer is valid and means
// "no observation".
type Observer func(Event)

// emit sends ev to the observer when one is set.
func (o Observer) emit(ev Event) {
	if o != nil {
		o(ev)
	}
}
