package testbed

// MergeStats pools several clusters' measurements into one Stats.
// Replicated campaigns use it to aggregate per-replica accounting into
// one report: durations, request counters, and failover totals add;
// outage and recovery records concatenate in the order given (callers
// pass replicas by ascending replica index, keeping the result
// deterministic). Each record list is sized once, so merging k parts
// copies every record once, and the result never aliases a part.
//
// The merged Outages list interleaves independent virtual timelines, so
// time-ordered analyses of a single run — AvailabilityCI's renewal cycles
// in particular — are only meaningful on per-replica Stats, not on a
// merged one. Ratio quantities (Availability) and totals remain exact.
func MergeStats(parts ...Stats) Stats {
	var merged Stats
	outages, recoveries := 0, 0
	for _, p := range parts {
		outages += len(p.Outages)
		recoveries += len(p.Recoveries)
	}
	merged.Outages = make([]Outage, 0, outages)
	merged.Recoveries = make([]Recovery, 0, recoveries)
	for _, p := range parts {
		merged.UpTime += p.UpTime
		merged.DownTime += p.DownTime
		merged.RequestsServed += p.RequestsServed
		merged.RequestsFailed += p.RequestsFailed
		merged.SessionFailovers += p.SessionFailovers
		merged.Partitions += p.Partitions
		merged.SessionRecoverySeconds += p.SessionRecoverySeconds
		merged.Outages = append(merged.Outages, p.Outages...)
		merged.Recoveries = append(merged.Recoveries, p.Recoveries...)
	}
	return merged
}
