package ingest

import "elevprivacy/internal/obs"

// Telemetry for the ingestion pipeline, resolved once at package init so the
// firehose hot path pays only atomic adds.
//
// Flow counters answer "where did every activity go":
//
//	elevpriv_ingest_accepted_total    envelopes journaled and acknowledged
//	elevpriv_ingest_duplicates_total  re-uploads of an already-accepted ID
//	elevpriv_ingest_shed_total        envelopes refused at the door (backlog
//	                                  at MaxBacklog, or draining)
//	elevpriv_ingest_spilled_total     accepted envelopes parked in the
//	                                  backlog because the spool was full
//	elevpriv_ingest_classified_total  predictions recorded to the results
//	                                  journal this process
//	elevpriv_ingest_replayed_total    backlog entries re-enqueued into the
//	                                  spool (crash replay and requeues alike)
//	elevpriv_ingest_restored_total    backlog entries recovered at open
//	                                  (intake − results after a crash)
//	elevpriv_ingest_requeued_total    batch members returned to the backlog
//	                                  by a classifier failure or stage
//	                                  timeout
//	elevpriv_ingest_batch_timeouts_total  batches abandoned past the stage
//	                                      deadline
//	elevpriv_ingest_batch_failures_total  batches whose classifier errored
//	elevpriv_ingest_faults_injected_total seeded fault-injection activations
//	elevpriv_ingest_label_matches_total   live predictions equal to the
//	                                      uploaded ground-truth region
//	elevpriv_ingest_labeled_total         live predictions that had ground
//	                                      truth to compare against
//
// Gauges and histograms answer "is the spooler keeping up":
//
//	elevpriv_ingest_spool_depth        activities holding spool slots right
//	                                   now (awaiting a Sync or queued)
//	elevpriv_ingest_backlog_depth      accepted-but-unqueued activities
//	elevpriv_ingest_spool_age_seconds  time since accept of the oldest
//	                                   member of the batch just dispatched
//	elevpriv_ingest_batch_seconds      per-batch classify latency
//	elevpriv_ingest_batch_size         activities per classified batch
var (
	mAccepted   = obs.GetCounter("elevpriv_ingest_accepted_total")
	mDuplicates = obs.GetCounter("elevpriv_ingest_duplicates_total")
	mShed       = obs.GetCounter("elevpriv_ingest_shed_total")
	mSpilled    = obs.GetCounter("elevpriv_ingest_spilled_total")
	mClassified = obs.GetCounter("elevpriv_ingest_classified_total")
	mReplayed   = obs.GetCounter("elevpriv_ingest_replayed_total")
	mRestored   = obs.GetCounter("elevpriv_ingest_restored_total")
	mRequeued   = obs.GetCounter("elevpriv_ingest_requeued_total")

	mBatchTimeouts = obs.GetCounter("elevpriv_ingest_batch_timeouts_total")
	mBatchFailures = obs.GetCounter("elevpriv_ingest_batch_failures_total")
	mFaults        = obs.GetCounter("elevpriv_ingest_faults_injected_total")
	mLabelMatches  = obs.GetCounter("elevpriv_ingest_label_matches_total")
	mLabeled       = obs.GetCounter("elevpriv_ingest_labeled_total")

	mSpoolDepth   = obs.GetGauge("elevpriv_ingest_spool_depth")
	mBacklogDepth = obs.GetGauge("elevpriv_ingest_backlog_depth")
	mSpoolAge     = obs.GetGauge("elevpriv_ingest_spool_age_seconds")

	mBatchSeconds = obs.GetHistogram("elevpriv_ingest_batch_seconds", nil)
	mBatchSize    = obs.GetHistogram("elevpriv_ingest_batch_size",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
)
