#ifndef TOPK_TOPK_EXTERNAL_TOPK_H_
#define TOPK_TOPK_EXTERNAL_TOPK_H_

#include <memory>
#include <optional>
#include <vector>

#include "io/spill_manager.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/run_generation.h"
#include "topk/heap_topk.h"
#include "topk/topk_operator.h"

namespace topk {

/// The one external merge sort behind the paper's three external top-k
/// algorithms. They differ only in where the cutoff key comes from: nowhere
/// (traditional, Sec 2.4), the kth key of a run plus early merges
/// (optimized, Sec 2.5), or the histogram priority queue (Sec 3). This class
/// owns everything else, once:
///
///  * the entry points: precondition guards, the query's ObsScope, the
///    bad_alloc guard, payload validation, the first-error latch Suspend
///    reports, and the cancellation poll with its keep-for-resume handoff;
///  * the in-memory phase and the switch to external mode (spill manager,
///    auto-manifest, replacement selection or quicksort run generation);
///  * Finish: run flush, the post-run-flush crash point, intermediate merges
///    (ReduceRunsForFinalMerge), the final merge, keeping the spill
///    directory for a resume when the merge fails, and the stats;
///  * Suspend and the common part of ResumeFromManifest.
///
/// A subclass is its cutoff policy: it overrides the protected hooks below.
class ExternalTopK : public TopKOperator {
 public:
  Status Consume(Row row) final;
  Result<std::vector<Row>> Finish() final;

  /// Makes the operator's state durable and relinquishes it instead of
  /// producing a result: buffered rows are spilled (switching to external
  /// mode if needed), the manifest is written and flushed, and the spill
  /// directory is left on disk for a later ResumeFromManifest — possibly in
  /// another process. Requires options.manifest_filename. The operator is
  /// finished afterwards.
  Status Suspend() final;

  bool resume_accepts_input() const final {
    return resumed_ && generator_ != nullptr;
  }

  /// True once the operator switched to external (spilling) mode.
  bool is_external() const { return generator_ != nullptr || resumed_; }

 protected:
  /// How rows are held until memory overflows.
  enum class InMemoryPhase {
    /// Buffer every row; sort and slice at Finish (Secs 2.4 and 2.5).
    kBuffer,
    /// Keep only the best k+offset rows in a bounded heap, i.e. run the
    /// in-memory algorithm until the output itself overflows memory
    /// (Sec 3.1.1).
    kBoundedHeap,
  };

  /// `tag` names the operator in allocation-failure messages and in its
  /// memory lease ("<tag>-topk"); it must outlive the operator.
  ExternalTopK(const TopKOptions& options, InMemoryPhase phase,
               const char* tag);

  /// ResumeFromManifest of the subclass `Op`: builds it with Op::Make,
  /// reopens the spill directory from options.manifest_filename (runs
  /// failing verification are quarantined into `report`), keeps
  /// checkpointing the manifest, and calls RestoreFromManifest. The
  /// operator then accepts no input unless the policy restored a run
  /// generator.
  template <typename Op>
  static Result<std::unique_ptr<Op>> Resume(const TopKOptions& options,
                                           RestoreReport* report) {
    std::unique_ptr<Op> op;
    TOPK_ASSIGN_OR_RETURN(op, Op::Make(options));
    TOPK_RETURN_NOT_OK(op->OpenForResume(report));
    return op;
  }

  /// Builds generator_ over spill_ with the policy's run-generation
  /// options; `buffered_rows` as for ConfigureRunGeneration.
  Status CreateGenerator(uint64_t buffered_rows);

  /// The in-memory phase's cutoff: the bounded heap's top once it holds
  /// k+offset rows.
  std::optional<double> in_memory_cutoff() const;

  // ---- Hooks: the cutoff policy ------------------------------------------

  /// The policy's part of run generation: spill observer, run-size limit,
  /// seek-index stride. `buffered_rows` is the number of rows the in-memory
  /// phase held at the switch (0 when a resume rebuilds the generator).
  virtual Status ConfigureRunGeneration(uint64_t /*buffered_rows*/,
                                        RunGeneratorOptions* /*gen*/) {
    return Status::OK();
  }

  /// Takes one input row in external mode, starting with the row whose
  /// arrival overflowed memory: input elimination (Algorithm 1 line 4), then
  /// generator_->Add with the policy's per-row maintenance around it.
  /// Cancellations are routed through the keep-for-resume handoff by the
  /// caller.
  virtual Status ConsumeExternal(Row&& row) {
    return generator_->Add(std::move(row));
  }

  /// Makes the spilled state durable for a later resume (Suspend and the
  /// keep-for-resume cancel handoff, after the generator was flushed):
  /// by default a flushed manifest checkpoint.
  virtual Status CheckpointForResume();

  /// Intermediate-merge policy and filter. On entry the planner merges per
  /// options.merge_policy and cuts intermediate runs at k+offset.
  virtual void ConfigureMergePlan(MergePlannerOptions* /*planner*/) const {}

  /// The final merge of `runs` into `sink`; by default a plain MergeRuns.
  virtual Result<MergeStats> FinalMerge(const std::vector<RunMeta>& runs,
                                        const MergeOptions& merge_options,
                                        const RowSink& sink);

  /// Rebuilds what only the policy knows from the restored spill manager
  /// (filter, input checkpoint).
  virtual Status RestoreFromManifest() { return Status::OK(); }

  /// Completes stats_ with the policy's own figures once external work is
  /// done (Finish and Suspend).
  virtual void FinalizeStats() {}

  const TopKOptions options_;
  const RowComparator comparator_;
  /// External phase (created at the switch, or by a resume).
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<RunGenerator> generator_;

 private:
  Status OpenForResume(RestoreReport* report);
  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();
  Result<std::vector<Row>> MergeRunsToResult();
  Status SuspendImpl();

  /// Offers `row` to the in-memory phase; false when it does not fit.
  Result<bool> KeepInMemory(Row& row);
  Status SwitchToExternal();
  /// Copies the run generator's counters into stats_.
  void TakeGeneratorStats();

  /// Entry-point poll of options_.cancel; a tripped token is routed
  /// through OnCancelStatus so the on_cancel policy applies.
  Status CheckCancel();
  /// Passes `cause` through, but when it is the cancellation token
  /// tripping and on_cancel is kKeepForResume, first performs Suspend's
  /// durable handoff (flush, checkpoint, disown) so the spilled runs
  /// survive for ResumeFromManifest. A storage error during the handoff
  /// wins over the cancellation.
  Status OnCancelStatus(Status cause);
  /// Waits out a manifest write that was in flight when the token tripped
  /// (call under a CancelShield). That write may have failed on the
  /// cancellation itself; the durable handoff rewrites the manifest, so
  /// only a storage error is returned.
  Status DrainManifestWrite();
  /// Records `status` as first_error_ unless one is already latched or it
  /// is a cancellation.
  void LatchFirstError(const Status& status);

  const char* const tag_;

  /// In-memory phase: a row buffer (kBuffer) or the bounded heap.
  std::vector<Row> buffer_;
  size_t buffered_bytes_ = 0;
  std::optional<BoundedTopKHeap> heap_;
  /// Arbiter lease covering the in-memory phase's bytes.
  MemoryLease lease_;

  bool finished_ = false;
  /// Built by ResumeFromManifest: runs come from a restored spill manager.
  /// Without a generator the operator is merge-phase only.
  bool resumed_ = false;
  /// First non-cancellation error any entry point surfaced. Suspend
  /// returns it instead of a generic precondition failure: the real cause
  /// of the operator's demise beats "Suspend after Finish".
  Status first_error_;
  /// The keep-for-resume cancel handoff ran (it must run at most once).
  bool cancel_unwound_ = false;
};

}  // namespace topk

#endif  // TOPK_TOPK_EXTERNAL_TOPK_H_
