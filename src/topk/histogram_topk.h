#ifndef TOPK_TOPK_HISTOGRAM_TOPK_H_
#define TOPK_TOPK_HISTOGRAM_TOPK_H_

#include <memory>
#include <optional>
#include <vector>

#include "histogram/cutoff_filter.h"
#include "topk/external_topk.h"

namespace topk {

/// The paper's algorithm (Sec 3): top-k by external merge sort with eager
/// input filtering guided by histograms.
///
/// Adaptive behaviour (Sec 3.1.1): while the requested output fits in the
/// memory budget the operator is exactly the in-memory priority-queue
/// algorithm and never touches storage; the moment memory overflows before
/// k+offset rows are buffered, it switches to run generation. From then on:
///
///  * every arriving row is tested against the cutoff key (Algorithm 1,
///    line 4) and dropped if it provably cannot reach the output;
///  * surviving rows enter replacement selection; rows leaving memory for a
///    run are tested again (line 11) because the cutoff may have sharpened
///    since they were admitted;
///  * each spilled row feeds the cutoff filter's histogram (line 13),
///    which continuously sharpens the cutoff — even mid-run.
///
/// The final result is produced by merging the surviving runs until k rows
/// are emitted, with lowest-keys-first intermediate merges that stop at the
/// cutoff and refine it (Sec 4.1).
class HistogramTopK : public ExternalTopK {
 public:
  static Result<std::unique_ptr<HistogramTopK>> Make(
      const TopKOptions& options);

  /// Reconstructs the merge phase of a suspended or crashed operator from
  /// the manifest in `options.manifest_filename` (Sec 2.7's pause-and-resume
  /// across process boundaries). Runs failing verification are quarantined
  /// and reported via `report` rather than aborting. The resumed operator
  /// accepts no further input: call Finish() to produce the result from the
  /// surviving runs. The cutoff filter is rebuilt from the per-run
  /// histograms the manifest preserved.
  static Result<std::unique_ptr<HistogramTopK>> ResumeFromManifest(
      const TopKOptions& options, RestoreReport* report = nullptr) {
    return Resume<HistogramTopK>(options, report);
  }

  ~HistogramTopK() override;  // out-of-line: FilterObserver is incomplete
                              // here

  std::string name() const override { return "histogram"; }

  /// Current cutoff key (from the heap top in in-memory mode, from the
  /// histogram model in external mode).
  std::optional<double> cutoff() const {
    return filter_ != nullptr ? filter_->cutoff() : in_memory_cutoff();
  }

  /// The cutoff filter (valid in external mode; for tests/benchmarks).
  const CutoffFilter* filter() const { return filter_.get(); }

 private:
  class FilterObserver;

  explicit HistogramTopK(const TopKOptions& options);

  CutoffFilter::Options MakeFilterOptions(uint64_t expected_run_rows);

  // Cutoff policy (ExternalTopK hooks).
  Status ConfigureRunGeneration(uint64_t buffered_rows,
                                RunGeneratorOptions* gen) override;
  Status ConsumeExternal(Row&& row) override;
  void ConfigureMergePlan(MergePlannerOptions* planner) const override;
  Result<MergeStats> FinalMerge(const std::vector<RunMeta>& runs,
                                const MergeOptions& merge_options,
                                const RowSink& sink) override;
  Status RestoreFromManifest() override;
  void FinalizeStats() override;

  /// Consolidates spilled runs early when the spill quota is nearly full
  /// (checked before every row handed to run generation): merges up to
  /// merge_fan_in registered runs — lowest keys first, stopping at the
  /// cutoff — into one quota-exempt output, then deletes the inputs. The
  /// cutoff filter usually makes the output much smaller than its inputs,
  /// so disk headroom is reclaimed *before* a block write trips the quota.
  /// Only after consolidation can no longer help does a write surface
  /// ResourceExhausted.
  Status MaybeConsolidateForQuota();
  Status ConsolidateSpillForQuota();

  /// Arbiter lease covering the cutoff filter's bucket-queue budget,
  /// acquired at the external switch.
  MemoryLease filter_lease_;
  std::unique_ptr<CutoffFilter> filter_;
  std::unique_ptr<FilterObserver> observer_;
  /// total_runs_created() at the last quota consolidation attempt; a new
  /// attempt waits for at least one new run so a consolidation that could
  /// not free enough space is not retried on every row.
  uint64_t runs_created_at_last_quota_merge_ = 0;
};

}  // namespace topk

#endif  // TOPK_TOPK_HISTOGRAM_TOPK_H_
