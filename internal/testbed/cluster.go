package testbed

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/jsas"
)

// Common errors.
var (
	// ErrBadTarget is reported when a fault injection names a nonexistent
	// or already-down component.
	ErrBadTarget = errors.New("testbed: invalid injection target")
)

// Component identifies the tier a record refers to.
type Component int

// Component values.
const (
	ComponentAS Component = iota + 1
	ComponentHADB
)

func (c Component) String() string {
	switch c {
	case ComponentAS:
		return "AS"
	case ComponentHADB:
		return "HADB"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// FailureKind classifies a component failure, mirroring the model's
// failure classes.
type FailureKind int

// FailureKind values.
const (
	// FailureProcess is a restartable software failure (AS or HADB
	// process death).
	FailureProcess FailureKind = iota + 1
	// FailureOS is an operating-system failure requiring a reboot.
	FailureOS
	// FailureHW is a permanent hardware failure requiring physical repair
	// (and, for HADB, spare-node data reconstruction).
	FailureHW
)

func (k FailureKind) String() string {
	switch k {
	case FailureProcess:
		return "process"
	case FailureOS:
		return "os"
	case FailureHW:
		return "hw"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Recovery records one observed component recovery.
type Recovery struct {
	Component Component
	Kind      FailureKind
	// Start is the virtual time the failure occurred.
	Start time.Duration
	// Duration is the time from failure to full reinstatement (including
	// load-balancer detection for AS instances).
	Duration time.Duration
	// Injected marks fault-injection (vs organic) failures.
	Injected bool
	// Success is false when the recovery escalated to a system-level
	// outage (imperfect recovery / double failure).
	Success bool
}

// Outage records one system-level unavailability interval.
type Outage struct {
	Start, End time.Duration
	// Cause names the tier whose failure made the system unavailable.
	Cause Component
	// Class records why: an independent fault (the zero value), a
	// domain-level common cause, or a network partition (split-brain).
	Class Cause
}

// Duration returns the outage length.
func (o Outage) Duration() time.Duration { return o.End - o.Start }

// Options configures a simulated cluster.
type Options struct {
	// Config is the deployment shape (instances, pairs, spares).
	Config jsas.Config
	// Params supplies the ground-truth failure rates (per year) and the
	// FIR used to decide imperfect recoveries. Recovery *durations* come
	// from Timing, not Params.
	Params jsas.Params
	// Timing is the measured-truth recovery behavior; zero value means
	// DefaultTiming.
	Timing *Timing
	// Seed makes the run reproducible.
	Seed int64
	// OrganicFailures enables random failures at the Params rates. Off,
	// the cluster only fails under explicit injection — the
	// fault-injection campaign mode.
	OrganicFailures bool
	// Maintenance enables scheduled HADB maintenance events.
	Maintenance bool
	// RequestRatePerSecond is the offered load used for request/session
	// accounting (paper: ~11.6 req/s ≈ 7M requests per 7-day run).
	RequestRatePerSecond float64
	// SessionsPerInstance is the number of live sessions an AS instance
	// carries (used for failover accounting; paper: up to 10,000).
	SessionsPerInstance int
	// Domains declares the fault-domain tree (site → power domain/rack →
	// members) for common-cause injection; empty means no domains.
	Domains []Domain
	// Observer, if set, receives trace events as the simulation runs.
	Observer Observer
}

// Cluster is a simulated JSAS EE7 deployment.
type Cluster struct {
	sim    *des.Sim
	cfg    jsas.Config
	params jsas.Params
	timing Timing
	opts   Options
	// observer caches opts.Observer so emit's delivery decision is a
	// single nil check in the event hot loop.
	observer Observer

	as    []*asInstance
	pairs []*hadbPair
	// spares is the pool of ready spare nodes.
	spares int

	// domains is the resolved fault-domain tree (transitive memberships
	// precomputed at New).
	domains []resolvedDomain
	// Partition state: partitionSeq stamps each partition event (heal
	// staleness checks), partitionedCount counts currently-isolated
	// instances (the no-partition fast path in the availability
	// predicate), partitions counts events for Stats.
	partitionSeq     uint64
	partitionedCount int
	partitions       int
	// pendingClass attributes outages opened during a correlated event
	// burst (domain injection, partition) to their cause class.
	pendingClass Cause

	// Availability bookkeeping.
	systemUp   bool
	lastChange time.Duration
	upTime     time.Duration
	downTime   time.Duration
	openOutage Outage // the outage in progress, when outageOpen
	outageOpen bool
	outages    []Outage
	recoveries []Recovery

	// Workload accounting. Request totals are derived from the integer
	// up/down time sums at read time (Stats) rather than accumulated as
	// floats per interval: the integer sums are independent of how Run
	// partitions the timeline, so the derived totals are too — the
	// cancellation-driven chunked advance cannot perturb them.
	sessionFailovers int
	// sessionRecovery accumulates session-seconds of elevated response
	// time from failovers (the paper's "session recovery time").
	sessionRecovery float64
}

// asInstance is one Application Server instance.
type asInstance struct {
	id      int
	target  string // precomputed "as-<id>" trace target
	up      bool
	version uint64 // invalidates stale failure timers
	// timer is the pending organic failure timer; superseding draws
	// Cancel it so far-horizon events don't accumulate in the queue.
	timer des.Handle
	// failFn is the timer callback, bound once on first arm and reused
	// across re-arms (rescheduling happens on every cluster event).
	failFn func()
	// partitioned marks the instance alive-but-unreachable (network
	// partition); partitionID stamps which partition isolated it so a
	// stale heal doesn't reconnect a re-partitioned instance.
	partitioned bool
	partitionID uint64
	// pendingKind is the failure class being recovered from.
	pendingKind FailureKind
	failedAt    time.Duration
	injected    bool
}

// hadbNode is one HADB node slot within a pair.
type hadbNode struct {
	target   string // precomputed "hadb-<pair>/<slot>" trace target
	active   bool
	version  uint64
	timer    des.Handle // pending organic failure timer
	failFn   func()     // prebound timer callback, reused across re-arms
	failedAt time.Duration
	kind     FailureKind
	injected bool
}

// hadbPair is a mirrored DRU pair.
type hadbPair struct {
	id     int
	target string // precomputed "hadb-<id>" trace target
	nodes  [2]*hadbNode
	// down marks a catastrophic pair failure awaiting operator restore.
	down   bool
	downAt time.Duration
	// maintenance marks a scheduled switchover in progress.
	maintenance bool
}

func (p *hadbPair) activeCount() int {
	n := 0
	for _, nd := range p.nodes {
		if nd.active {
			n++
		}
	}
	return n
}

// degraded reports whether only one node is serving (recovery or
// maintenance in progress).
func (p *hadbPair) degraded() bool { return !p.down && p.activeCount() < 2 }

// targetNames caches the per-index trace target strings shared by every
// cluster: replicated campaigns and longevity series construct thousands
// of identically-shaped clusters, and the names depend only on the index.
// The slices only ever grow; handed-out prefixes stay valid because
// growth either appends past them or reallocates.
var targetNames struct {
	sync.Mutex
	as, pair, node0, node1 []string
}

func clusterTargets(nAS, nPairs int) (as, pair, node0, node1 []string) {
	targetNames.Lock()
	defer targetNames.Unlock()
	for i := len(targetNames.as); i < nAS; i++ {
		targetNames.as = append(targetNames.as, "as-"+strconv.Itoa(i))
	}
	for i := len(targetNames.pair); i < nPairs; i++ {
		s := strconv.Itoa(i)
		targetNames.pair = append(targetNames.pair, "hadb-"+s)
		targetNames.node0 = append(targetNames.node0, "hadb-"+s+"/0")
		targetNames.node1 = append(targetNames.node1, "hadb-"+s+"/1")
	}
	return targetNames.as[:nAS], targetNames.pair[:nPairs],
		targetNames.node0[:nPairs], targetNames.node1[:nPairs]
}

// clusterPool recycles closed clusters (see Close): the component slabs,
// their prebound timer closures, and the accumulated-history slices all
// survive reuse, so bulk drivers construct clusters without allocating.
var clusterPool sync.Pool

// New constructs a cluster.
func New(opts Options) (*Cluster, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	timing := DefaultTiming()
	if opts.Timing != nil {
		timing = *opts.Timing
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	if timing.PartitionHeal == (DurationRange{}) {
		// Pre-domain Timing literals predate the field; fill the default
		// rather than invalidating them.
		timing.PartitionHeal = DefaultTiming().PartitionHeal
	}
	if opts.RequestRatePerSecond < 0 || opts.SessionsPerInstance < 0 {
		return nil, &ConfigError{Field: "negative workload settings"}
	}
	domains, err := resolveDomains(opts.Domains, opts.Config.ASInstances, opts.Config.HADBPairs)
	if err != nil {
		return nil, err
	}
	c, _ := clusterPool.Get().(*Cluster)
	if c == nil {
		c = &Cluster{}
	}
	c.sim = des.New(opts.Seed)
	c.cfg = opts.Config
	c.params = opts.Params
	c.timing = timing
	c.opts = opts
	c.observer = opts.Observer
	c.spares = opts.Config.HADBSpares
	c.systemUp = true
	c.lastChange = 0
	c.upTime, c.downTime = 0, 0
	c.outageOpen = false
	c.outages = c.outages[:0]
	c.recoveries = c.recoveries[:0]
	c.sessionFailovers = 0
	c.sessionRecovery = 0
	c.domains = domains
	c.partitionSeq = 0
	c.partitionedCount = 0
	c.partitions = 0
	c.pendingClass = CauseIndependent
	c.resetComponents()
	if opts.OrganicFailures {
		for _, inst := range c.as {
			c.scheduleASFailure(inst)
		}
		for _, p := range c.pairs {
			for slot := range p.nodes {
				c.scheduleHADBFailure(p, slot)
			}
		}
	}
	if opts.Maintenance {
		for _, p := range c.pairs {
			c.scheduleMaintenance(p)
		}
	}
	return c, nil
}

// resetComponents (re)builds the component state for c.cfg. A recycled
// cluster of the same shape keeps its slabs and prebound timer closures
// (they capture only the stable c and component pointers — everything
// run-specific is read through c at fire time); a shape change rebuilds
// from scratch.
func (c *Cluster) resetComponents() {
	nAS, nPairs := c.cfg.ASInstances, c.cfg.HADBPairs
	if len(c.as) == nAS && len(c.pairs) == nPairs {
		for _, inst := range c.as {
			inst.up = true
			inst.version = 0
			inst.timer = des.Handle{}
			inst.pendingKind = 0
			inst.failedAt = 0
			inst.injected = false
			inst.partitioned = false
			inst.partitionID = 0
		}
		for _, p := range c.pairs {
			p.down = false
			p.downAt = 0
			p.maintenance = false
			for _, nd := range p.nodes {
				nd.active = true
				nd.version = 0
				nd.timer = des.Handle{}
				nd.failedAt = 0
				nd.kind = 0
				nd.injected = false
			}
		}
		return
	}
	asNames, pairNames, node0Names, node1Names := clusterTargets(nAS, nPairs)
	// Components are allocated as contiguous slabs — campaigns and series
	// construct thousands of clusters, so per-component allocations are
	// measurable churn. Pointers into a slab are fine: the slabs are fully
	// sized up front and never grow.
	instSlab := make([]asInstance, nAS)
	c.as = make([]*asInstance, len(instSlab))
	for i := range instSlab {
		instSlab[i] = asInstance{id: i, target: asNames[i], up: true}
		c.as[i] = &instSlab[i]
	}
	pairSlab := make([]hadbPair, nPairs)
	nodeSlab := make([]hadbNode, 2*nPairs)
	c.pairs = make([]*hadbPair, len(pairSlab))
	for i := range pairSlab {
		n0, n1 := &nodeSlab[2*i], &nodeSlab[2*i+1]
		*n0 = hadbNode{target: node0Names[i], active: true}
		*n1 = hadbNode{target: node1Names[i], active: true}
		pairSlab[i] = hadbPair{id: i, target: pairNames[i], nodes: [2]*hadbNode{n0, n1}}
		c.pairs[i] = &pairSlab[i]
	}
}

// Sim exposes the underlying simulator (advanced use: custom event
// scripting in tests and campaigns).
func (c *Cluster) Sim() *des.Sim { return c.sim }

// Close releases the cluster's simulator back to the kernel's pool (see
// des.Sim.Release). The cluster must not be used after Close; further
// method calls panic on the nil simulator rather than corrupting a
// recycled one. Close is optional — an unclosed cluster is simply
// garbage collected — but drivers that construct clusters in bulk
// (replicated campaigns, longevity series) close each one to keep the
// construction path allocation-free.
func (c *Cluster) Close() {
	if c.sim == nil {
		return // already closed; never double-pool
	}
	c.sim.Release()
	c.sim = nil
	c.observer = nil
	c.opts = Options{}
	clusterPool.Put(c)
}

// Run advances the cluster to the given virtual time.
func (c *Cluster) Run(until time.Duration) error {
	before := c.sim.Processed()
	err := c.sim.Run(until)
	obsSimEvents.Add(int64(c.sim.Processed() - before))
	if err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	c.accountInterval()
	return nil
}

// Now returns the cluster's virtual time.
func (c *Cluster) Now() time.Duration { return c.sim.Now() }

// draw samples a duration from a range.
func (c *Cluster) draw(r DurationRange) time.Duration {
	return c.sim.Uniform(r.Min, r.Max)
}

// upASCount returns the number of serving AS instances.
func (c *Cluster) upASCount() int {
	n := 0
	for _, inst := range c.as {
		if inst.up {
			n++
		}
	}
	return n
}

// systemIsUp evaluates the availability predicate: at least one AS
// instance serving (up and reachable) and every HADB pair able to
// persist session state.
func (c *Cluster) systemIsUp() bool {
	if c.servingASCount() == 0 {
		return false
	}
	for _, p := range c.pairs {
		if p.down || p.activeCount() == 0 {
			return false
		}
	}
	return true
}

// Healthy reports whether every component is serving: all AS instances
// up and every HADB pair fully mirrored. It is the same predicate as
// evaluating Snapshot component-by-component, without building one —
// campaign drivers call it after every simulation event.
func (c *Cluster) Healthy() bool {
	if c.partitionedCount > 0 {
		return false
	}
	for _, inst := range c.as {
		if !inst.up {
			return false
		}
	}
	for _, p := range c.pairs {
		if p.down || p.activeCount() != 2 {
			return false
		}
	}
	return true
}

// OutageCount returns the number of system-level outages so far, the
// open one (if any) included — equal to len(Stats().Outages) without
// copying the outage history.
func (c *Cluster) OutageCount() int {
	n := len(c.outages)
	if c.outageOpen {
		n++
	}
	return n
}

// accountInterval charges the elapsed time since the last state change to
// up or down time and to the request counters.
func (c *Cluster) accountInterval() {
	now := c.sim.Now()
	dt := now - c.lastChange
	if dt <= 0 {
		c.lastChange = now
		return
	}
	if c.systemUp {
		c.upTime += dt
	} else {
		c.downTime += dt
	}
	c.lastChange = now
}

// stateChanged re-evaluates the system predicate after any component
// event, closing/opening outage records as needed. cause attributes a new
// outage to the tier that triggered it.
func (c *Cluster) stateChanged(cause Component) {
	c.accountInterval()
	up := c.systemIsUp()
	if up == c.systemUp {
		return
	}
	c.systemUp = up
	now := c.sim.Now()
	if !up {
		class := c.pendingClass
		if class == CauseIndependent && cause == ComponentAS && c.partitionedAlive() {
			// Split-brain: the last reachable instance died, but alive
			// capacity exists behind the partition — without the network
			// fault the system would still be serving.
			class = CausePartition
		}
		c.openOutage, c.outageOpen = Outage{Start: now, Cause: cause, Class: class}, true
		c.emit(Event{Type: EventOutageStart, Component: cause, Target: "system", Class: class})
		return
	}
	if c.outageOpen {
		c.openOutage.End = now
		c.outages = append(c.outages, c.openOutage)
		c.outageOpen = false
		c.emit(Event{Type: EventOutageEnd, Component: cause, Target: "system"})
	}
}

// Stats is a snapshot of the cluster's accumulated measurements.
type Stats struct {
	UpTime, DownTime time.Duration
	Outages          []Outage
	Recoveries       []Recovery
	RequestsServed   float64
	RequestsFailed   float64
	SessionFailovers int
	// Partitions counts injected network-partition events.
	Partitions int
	// SessionRecoverySeconds is the cumulative session-seconds of
	// elevated response time caused by failovers: each migrated session
	// pays one session-recovery interval on its next request.
	SessionRecoverySeconds float64
}

// Availability returns observed uptime fraction (1 if no time elapsed).
func (s Stats) Availability() float64 {
	total := s.UpTime + s.DownTime
	if total == 0 {
		return 1
	}
	return float64(s.UpTime) / float64(total)
}

// RecoveryDurations returns the observed recovery durations filtered by
// component and kind.
func (s Stats) RecoveryDurations(comp Component, kind FailureKind) []time.Duration {
	var out []time.Duration
	for _, r := range s.Recoveries {
		if r.Component == comp && r.Kind == kind && r.Success {
			out = append(out, r.Duration)
		}
	}
	return out
}

// Stats returns a copy of the current measurements.
func (c *Cluster) Stats() Stats {
	c.accountInterval()
	outages := make([]Outage, len(c.outages))
	copy(outages, c.outages)
	if c.outageOpen {
		o := c.openOutage
		o.End = c.sim.Now()
		outages = append(outages, o)
	}
	recoveries := make([]Recovery, len(c.recoveries))
	copy(recoveries, c.recoveries)
	return Stats{
		UpTime:                 c.upTime,
		DownTime:               c.downTime,
		Outages:                outages,
		Recoveries:             recoveries,
		RequestsServed:         c.opts.RequestRatePerSecond * c.upTime.Seconds(),
		RequestsFailed:         c.opts.RequestRatePerSecond * c.downTime.Seconds(),
		SessionFailovers:       c.sessionFailovers,
		Partitions:             c.partitions,
		SessionRecoverySeconds: c.sessionRecovery,
	}
}
