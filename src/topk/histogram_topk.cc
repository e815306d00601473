#include "topk/histogram_topk.h"

#include <algorithm>

#include "extensions/offset_skip.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

namespace {
ObsCounter& CutoffUpdatesCounter() {
  static ObsCounter counter("filter.cutoff_updates");
  return counter;
}
ObsCounter& QuotaConsolidationsCounter() {
  static ObsCounter counter("spill.quota_consolidations");
  return counter;
}
}  // namespace

/// Bridges the run generator's spill events into the cutoff filter
/// (Algorithm 1 lines 11-13).
class HistogramTopK::FilterObserver : public SpillObserver {
 public:
  explicit FilterObserver(CutoffFilter* filter) : filter_(filter) {}

  bool EliminateAtSpill(const Row& row) override {
    return filter_->Eliminate(row);
  }

  void OnRowSpilled(const Row& row) override {
    filter_->RowSpilled(row.key);
  }

  std::vector<HistogramBucket> OnRunFinished() override {
    return filter_->RunFinished();
  }

 private:
  CutoffFilter* filter_;
};

HistogramTopK::HistogramTopK(const TopKOptions& options)
    : ExternalTopK(options, InMemoryPhase::kBoundedHeap, "histogram") {}

HistogramTopK::~HistogramTopK() = default;

Result<std::unique_ptr<HistogramTopK>> HistogramTopK::Make(
    const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  return std::unique_ptr<HistogramTopK>(new HistogramTopK(options));
}

CutoffFilter::Options HistogramTopK::MakeFilterOptions(
    uint64_t expected_run_rows) {
  CutoffFilter::Options filter_options;
  filter_options.k = options_.approx_filter_k > 0 ? options_.approx_filter_k
                                                  : options_.output_rows();
  filter_options.direction = options_.direction;
  filter_options.target_buckets_per_run = options_.histogram_buckets_per_run;
  filter_options.memory_limit_bytes = options_.histogram_memory_limit_bytes;
  filter_options.consolidation = options_.histogram_consolidation;
  // Cutoff-evolution timeline: one instant event per establishment /
  // tightening, annotated with operator progress. The callback runs on the
  // single consumer thread, so reading stats_ here is safe.
  filter_options.on_cutoff_change =
      [this](const CutoffFilter::CutoffUpdate& update) {
        CutoffUpdatesCounter().Add(1);
        if (options_.obs != nullptr) {
          // The profile report's cutoff-evolution timeline, captured even
          // when tracing is off (it is cheap: one capped vector append).
          ObsContext::CutoffEvent event;
          event.at_nanos = options_.obs->ElapsedNanos();
          event.cutoff = update.cutoff;
          event.tightened = update.tightened;
          event.rows_consumed = stats_.rows_consumed;
          event.rows_eliminated_input = stats_.rows_eliminated_input;
          options_.obs->RecordCutoffEvent(event);
        }
        if (!TracingEnabled()) return;
        const uint64_t consumed = stats_.rows_consumed;
        const uint64_t eliminated = stats_.rows_eliminated_input;
        const double pass_rate =
            consumed == 0
                ? 1.0
                : 1.0 - static_cast<double>(eliminated) /
                            static_cast<double>(consumed);
        TraceInstant(update.tightened ? "cutoff.tighten" : "cutoff.establish",
                     "filter",
                     {TraceArg("cutoff", update.cutoff),
                      TraceArg("proposed", update.proposed ? 1 : 0),
                      TraceArg("bucket_count", update.bucket_count),
                      TraceArg("tracked_rows", update.tracked_rows),
                      TraceArg("rows_consumed", consumed),
                      TraceArg("rows_eliminated_input", eliminated),
                      TraceArg("input_pass_rate", pass_rate)});
      };
  filter_options.target_run_rows = expected_run_rows;
  return filter_options;
}

Status HistogramTopK::ConfigureRunGeneration(uint64_t buffered_rows,
                                             RunGeneratorOptions* gen) {
  // The cutoff filter's bucket queue is a sizable consumer in its own
  // right: lease its configured budget up front, so the arbiter sees the
  // external switch's full footprint before the first run is written.
  MemoryArbiter* arbiter = options_.effective_arbiter();
  if (arbiter != nullptr && !filter_lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(filter_lease_,
                          arbiter->Acquire("cutoff-filter", 0));
    TOPK_RETURN_NOT_OK(
        filter_lease_.EnsureAtLeast(options_.histogram_memory_limit_bytes));
  }
  // Bucket width is derived from the expected run length: replacement
  // selection produces runs near twice the rows that fit in memory,
  // truncated by the run-size limit ("A best effort is made to decide the
  // target number of histogram buckets collected from each run",
  // Sec 5.1.2). The in-memory row count at the moment memory overflowed is
  // our estimate of rows-per-memory-load.
  const uint64_t expected_run_rows = std::min(
      2 * std::max<uint64_t>(buffered_rows, 1), options_.output_rows());
  filter_ = std::make_unique<CutoffFilter>(MakeFilterOptions(expected_run_rows));
  observer_ = std::make_unique<FilterObserver>(filter_.get());
  gen->run_row_limit = options_.output_rows();
  gen->observer = observer_.get();
  // Index granularity that yields ~64 seek points per run even when runs
  // are small (offset skips need entries inside every run).
  gen->run_index_stride = std::max<uint64_t>(16, expected_run_rows / 64);
  return Status::OK();
}

Status HistogramTopK::MaybeConsolidateForQuota() {
  SpillQuota* quota = spill_->spill_quota();
  bool quota_pressed = false;
  if (quota->enabled()) {
    const double charged = static_cast<double>(quota->charged_bytes());
    quota_pressed = charged >= 0.85 * static_cast<double>(quota->quota_bytes());
  }
  // Memory-arbiter soft pressure reuses the same response as a near-full
  // spill quota: consolidating the lowest-key runs shrinks the registry
  // (fewer open readers and histogram buckets later) while the cutoff
  // filter drops rows for free. The runs-created guard below keeps a
  // persistent soft level from consolidating more than once per new run.
  MemoryArbiter* arbiter = options_.effective_arbiter();
  const bool mem_pressed =
      arbiter != nullptr && arbiter->pressure() >= MemoryPressure::kSoft;
  if (!quota_pressed && !mem_pressed) return Status::OK();
  if (spill_->run_count() < 2) return Status::OK();
  if (spill_->total_runs_created() == runs_created_at_last_quota_merge_) {
    return Status::OK();
  }
  return ConsolidateSpillForQuota();
}

Status HistogramTopK::ConsolidateSpillForQuota() {
  std::vector<RunMeta> inputs = spill_->runs();
  // Lowest keys first, the same policy intermediate merges use: those runs
  // are where the cutoff filter discards the most rows, so merging them
  // frees the most disk per merge.
  OrderRunsForMerge(&inputs, comparator_, MergePolicy::kLowestKeysFirst);
  if (inputs.size() > options_.merge_fan_in) {
    inputs.resize(options_.merge_fan_in);
  }
  uint64_t input_bytes = 0;
  for (const RunMeta& run : inputs) input_bytes += run.bytes;
  PhaseScope phase("spill.quota_consolidate");
  TraceSpan span("spill.quota_consolidate", "topk",
                 {TraceArg("runs", inputs.size()),
                  TraceArg("input_bytes", input_bytes),
                  TraceArg("charged_bytes", spill_->spill_quota()->charged_bytes())});
  QuotaConsolidationsCounter().Add(1);

  MergeOptions merge_options;
  merge_options.limit = options_.output_rows();
  merge_options.with_ties = options_.with_ties;
  merge_options.stop_filter = filter_.get();
  merge_options.refine_filter = filter_.get();
  merge_options.use_ovc = options_.use_ovc;
  merge_options.cancel = options_.cancel.get();
  MergeStats merge_stats;
  TOPK_ASSIGN_OR_RETURN(
      merge_stats, MergeRunsIntoOne(spill_.get(), inputs, comparator_,
                                    merge_options, /*quota_exempt=*/true));
  stats_.merge_rows_written += merge_stats.rows_emitted;
  stats_.merge_rows_read += merge_stats.rows_read;
  runs_created_at_last_quota_merge_ = spill_->total_runs_created();
  return Status::OK();
}

Status HistogramTopK::ConsumeExternal(Row&& row) {
  // Algorithm 1 line 4.
  if (filter_->Eliminate(row)) {
    ++stats_.rows_eliminated_input;
    return Status::OK();
  }
  // Reclaim disk headroom *before* handing over the row: Add takes it by
  // value, so a quota breach inside run generation would lose it.
  TOPK_RETURN_NOT_OK(MaybeConsolidateForQuota());
  return generator_->Add(std::move(row));
}

void HistogramTopK::ConfigureMergePlan(MergePlannerOptions* planner) const {
  // Intermediate merges stop at the cutoff and refine it (Sec 4.1).
  planner->filter = filter_.get();
}

Result<MergeStats> HistogramTopK::FinalMerge(const std::vector<RunMeta>& runs,
                                             const MergeOptions& merge_options,
                                             const RowSink& sink) {
  if (options_.offset == 0 || !options_.histogram_offset_skip) {
    return ExternalTopK::FinalMerge(runs, merge_options, sink);
  }
  // Sec 4.1: start the merge at the highest key with rank below the
  // offset, seeking past each run's skippable prefix.
  OffsetSkipPlan plan;
  MergeStats merge_stats;
  TOPK_ASSIGN_OR_RETURN(
      merge_stats, MergeRunsWithOffsetSkip(spill_.get(), runs, comparator_,
                                           merge_options, sink, &plan));
  stats_.offset_rows_seek_skipped = plan.rows_skipped;
  return merge_stats;
}

void HistogramTopK::FinalizeStats() {
  stats_.final_cutoff = filter_->cutoff();
  stats_.filter_buckets_inserted = filter_->buckets_inserted();
  stats_.filter_consolidations = filter_->consolidations();
}

Status HistogramTopK::RestoreFromManifest() {
  // Rebuild the cutoff filter from the per-run histograms the manifest
  // preserved ("retain any information once gained" surviving a process
  // death): merge steps resume with the same eager filtering the original
  // execution had earned.
  uint64_t max_run_rows = 1;
  uint64_t buckets = 0;
  for (const RunMeta& run : spill_->runs()) {
    max_run_rows = std::max(max_run_rows, run.rows);
    buckets += run.histogram.size();
  }
  filter_ = std::make_unique<CutoffFilter>(MakeFilterOptions(max_run_rows));
  for (const RunMeta& run : spill_->runs()) {
    for (const HistogramBucket& bucket : run.histogram) {
      filter_->InsertBucket(bucket);
    }
  }
  if (TracingEnabled()) {
    TraceInstant("resume.filter_rebuilt", "topk",
                 {TraceArg("runs", spill_->run_count()),
                  TraceArg("buckets", buckets),
                  TraceArg("cutoff_established",
                           filter_->cutoff().has_value() ? 1 : 0)});
  }
  return Status::OK();
}

}  // namespace topk
