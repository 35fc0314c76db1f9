package testbed

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/jsas"
)

func TestAvailabilityCICoversModel(t *testing.T) {
	t.Parallel()
	// Long organic run: the 95% CI must cover the observed availability
	// and (almost always) the analytic model's value.
	p := jsas.DefaultParams()
	tm := DefaultTiming()
	tm.HADBRestart = Fixed(p.HADBRestartShort)
	tm.HADBOSReboot = Fixed(p.HADBRestartLong)
	tm.HADBRepairPerGB = Fixed(p.HADBRepair)
	tm.OperatorRestoreHADB = Fixed(p.HADBRestore)
	tm.ASRestart = Fixed(p.ASRestartShort / 2)
	tm.HealthCheckInterval = p.ASRestartShort
	tm.ASOSReboot = Fixed(15 * time.Minute)
	tm.ASHWRepair = Fixed(100 * time.Minute)
	tm.OperatorRestoreAS = Fixed(p.ASRestoreAll)
	tm.MaintenanceSwitchover = Fixed(p.MaintenanceSwitchover)
	c, err := New(Options{
		Config: jsas.Config1, Params: p, Timing: &tm, Seed: 41,
		OrganicFailures: true, Maintenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(250 * 8760 * time.Hour); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if len(s.Outages) < 5 {
		t.Skipf("only %d outages; CI not meaningful", len(s.Outages))
	}
	ci, err := s.AvailabilityCI(0.95)
	if err != nil {
		t.Fatalf("AvailabilityCI: %v", err)
	}
	obs := s.Availability()
	if obs < ci.Low || obs > ci.High {
		t.Errorf("observed %v outside its own CI (%v, %v)", obs, ci.Low, ci.High)
	}
	model, err := jsas.Solve(jsas.Config1, p)
	if err != nil {
		t.Fatal(err)
	}
	if model.Availability < ci.Low || model.Availability > ci.High {
		t.Logf("note: model availability %v outside 95%% CI (%v, %v) — possible for 1 in 20 seeds",
			model.Availability, ci.Low, ci.High)
	}
	if ci.Low >= ci.High {
		t.Errorf("degenerate CI: (%v, %v)", ci.Low, ci.High)
	}
}

// TestAvailabilityCIBracketsPointOnLongTail is the regression test for
// the trailing-cycle bug: the renewal cycles used to end at the final
// outage's End, so a long healthy tail — the common case in stability
// runs — was dropped from the exposure, inflating estimated unavailability
// until the CI no longer contained the point estimate.
func TestAvailabilityCIBracketsPointOnLongTail(t *testing.T) {
	t.Parallel()
	s := Stats{
		UpTime:   997 * time.Hour,
		DownTime: 3 * time.Hour,
		Outages: []Outage{
			{Start: 10 * time.Hour, End: 11 * time.Hour, Cause: ComponentHADB},
			{Start: 30 * time.Hour, End: 31 * time.Hour, Cause: ComponentHADB},
			{Start: 50 * time.Hour, End: 51 * time.Hour, Cause: ComponentAS},
		},
	}
	point := s.Availability() // 0.997: 3 h down over 1000 h
	ci, err := s.AvailabilityCI(0.95)
	if err != nil {
		t.Fatalf("AvailabilityCI: %v", err)
	}
	if point < ci.Low || point > ci.High {
		t.Errorf("point estimate %v outside CI (%v, %v) — trailing up-time dropped?",
			point, ci.Low, ci.High)
	}
	if ci.Low >= ci.High {
		t.Errorf("degenerate CI (%v, %v)", ci.Low, ci.High)
	}

	// Without the tail (history ends at the last outage) the old and new
	// treatments coincide: the interval must still bracket the point.
	noTail := Stats{
		UpTime:   48 * time.Hour,
		DownTime: 3 * time.Hour,
		Outages:  s.Outages,
	}
	point = noTail.Availability()
	ci, err = noTail.AvailabilityCI(0.95)
	if err != nil {
		t.Fatalf("AvailabilityCI: %v", err)
	}
	if point < ci.Low || point > ci.High {
		t.Errorf("no-tail point %v outside CI (%v, %v)", point, ci.Low, ci.High)
	}
}

func TestStatsMergePoolsAccounting(t *testing.T) {
	t.Parallel()
	a := Stats{
		UpTime: 10 * time.Hour, DownTime: time.Hour,
		RequestsServed: 100, RequestsFailed: 5,
		SessionFailovers: 2, SessionRecoverySeconds: 1.5,
		Outages:    []Outage{{Start: 1 * time.Hour, End: 2 * time.Hour, Cause: ComponentAS}},
		Recoveries: []Recovery{{Component: ComponentAS, Kind: FailureProcess, Success: true}},
	}
	b := Stats{
		UpTime: 20 * time.Hour, DownTime: 2 * time.Hour,
		RequestsServed: 200, RequestsFailed: 10,
		SessionFailovers: 3, SessionRecoverySeconds: 2.5,
		Outages:    []Outage{{Start: 5 * time.Hour, End: 7 * time.Hour, Cause: ComponentHADB}},
		Recoveries: []Recovery{{Component: ComponentHADB, Kind: FailureHW, Success: false}},
	}
	m := MergeStats(a, b)
	if m.UpTime != 30*time.Hour || m.DownTime != 3*time.Hour {
		t.Errorf("merged durations = %v/%v", m.UpTime, m.DownTime)
	}
	if m.RequestsServed != 300 || m.RequestsFailed != 15 {
		t.Errorf("merged requests = %v/%v", m.RequestsServed, m.RequestsFailed)
	}
	if m.SessionFailovers != 5 || m.SessionRecoverySeconds != 4 {
		t.Errorf("merged failovers = %d/%v", m.SessionFailovers, m.SessionRecoverySeconds)
	}
	if len(m.Outages) != 2 || m.Outages[0].Cause != ComponentAS || m.Outages[1].Cause != ComponentHADB {
		t.Errorf("merged outages = %+v", m.Outages)
	}
	if len(m.Recoveries) != 2 {
		t.Errorf("merged recoveries = %+v", m.Recoveries)
	}
	// MergeStats must not alias the inputs' slices.
	m.Outages[0].Cause = ComponentHADB
	if a.Outages[0].Cause != ComponentAS {
		t.Error("MergeStats aliased the first part's Outages slice")
	}
}

// TestMergeStatsMatchesPairwiseFold: merging k parts at once equals
// folding them two at a time in order, the definition MergeStats sizes
// once instead of re-copying per part.
func TestMergeStatsMatchesPairwiseFold(t *testing.T) {
	t.Parallel()
	var parts []Stats
	for i := 0; i < 5; i++ {
		d := time.Duration(i+1) * time.Minute
		p := Stats{
			UpTime: 100 * d, DownTime: d,
			RequestsServed: 0.1 * float64(i+1), RequestsFailed: 0.3 * float64(i),
			SessionFailovers: i, Partitions: 2 * i,
			SessionRecoverySeconds: 0.7 * float64(i+1),
		}
		for j := 0; j < i; j++ { // part 0 has no records
			p.Outages = append(p.Outages, Outage{Start: d, End: 2 * d, Cause: ComponentHADB, Class: CauseCommonCause})
			p.Recoveries = append(p.Recoveries, Recovery{Component: ComponentAS, Kind: FailureOS, Duration: d, Success: j%2 == 0})
		}
		parts = append(parts, p)
	}
	// The oracle: the pairwise fold, starting from the zero Stats.
	var fold Stats
	for _, p := range parts {
		fold = Stats{
			UpTime:                 fold.UpTime + p.UpTime,
			DownTime:               fold.DownTime + p.DownTime,
			RequestsServed:         fold.RequestsServed + p.RequestsServed,
			RequestsFailed:         fold.RequestsFailed + p.RequestsFailed,
			SessionFailovers:       fold.SessionFailovers + p.SessionFailovers,
			Partitions:             fold.Partitions + p.Partitions,
			SessionRecoverySeconds: fold.SessionRecoverySeconds + p.SessionRecoverySeconds,
			Outages:                append(append([]Outage{}, fold.Outages...), p.Outages...),
			Recoveries:             append(append([]Recovery{}, fold.Recoveries...), p.Recoveries...),
		}
	}
	if got := MergeStats(parts...); !reflect.DeepEqual(got, fold) {
		t.Fatalf("MergeStats = %+v\nwant pairwise fold %+v", got, fold)
	}
}

func TestAvailabilityCIDegenerateCases(t *testing.T) {
	t.Parallel()
	var empty Stats
	ci, err := empty.AvailabilityCI(0.9)
	if err != nil {
		t.Fatalf("AvailabilityCI(empty): %v", err)
	}
	if ci.Low != 0 || ci.High != 1 {
		t.Errorf("empty stats CI = %+v, want [0,1]", ci)
	}
	one := Stats{UpTime: 100 * time.Hour, DownTime: time.Hour,
		Outages: []Outage{{Start: 0, End: time.Hour}}}
	ci, err = one.AvailabilityCI(0.9)
	if err != nil {
		t.Fatalf("AvailabilityCI(one outage): %v", err)
	}
	if ci.High != 1 {
		t.Errorf("one-outage CI high = %v, want 1", ci.High)
	}
	if _, err := one.AvailabilityCI(0); err == nil {
		t.Error("confidence 0 accepted")
	}
	if _, err := one.AvailabilityCI(1); err == nil {
		t.Error("confidence 1 accepted")
	}
}
