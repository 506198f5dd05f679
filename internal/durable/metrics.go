package durable

import "elevprivacy/internal/obs"

// Telemetry for the durability layer, resolved once at package init so the
// hot paths (journal appends, pool dispatch) pay only atomic adds.
//
// Journal series answer "is checkpointing keeping up":
//
//	elevpriv_journal_appends_total   records written this process
//	elevpriv_journal_syncs_total     group-commit fsyncs run
//	elevpriv_journal_fsync_seconds   group-commit latency (flush+sync; a
//	                                 Flush with nothing pending runs none)
//	elevpriv_journal_restored_total  units replayed from disk at open
//
// Pool series answer "is the sweep making progress":
//
//	elevpriv_pool_units_dispatched_total  indices handed to workers
//	elevpriv_pool_units_completed_total   units that returned nil
//	elevpriv_pool_units_failed_total      units that returned an error
//	                                      (panics included)
//	elevpriv_pool_units_requeued_total    units left undispatched by a
//	                                      drain — they re-run on resume
//	elevpriv_pool_queue_depth             undispatched units right now
//	elevpriv_pool_in_flight               units executing right now
//	elevpriv_pool_unit_seconds            per-unit wall time
var (
	journalAppends  = obs.GetCounter("elevpriv_journal_appends_total")
	journalSyncs    = obs.GetCounter("elevpriv_journal_syncs_total")
	journalFsync    = obs.GetHistogram("elevpriv_journal_fsync_seconds", nil)
	journalRestored = obs.GetCounter("elevpriv_journal_restored_total")

	poolDispatched = obs.GetCounter("elevpriv_pool_units_dispatched_total")
	poolCompleted  = obs.GetCounter("elevpriv_pool_units_completed_total")
	poolFailed     = obs.GetCounter("elevpriv_pool_units_failed_total")
	poolRequeued   = obs.GetCounter("elevpriv_pool_units_requeued_total")
	poolQueueDepth = obs.GetGauge("elevpriv_pool_queue_depth")
	poolInFlight   = obs.GetGauge("elevpriv_pool_in_flight")
	poolUnitSecs   = obs.GetHistogram("elevpriv_pool_unit_seconds", nil)
)
