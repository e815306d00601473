#include "topk/optimized_external_topk.h"

#include <string>

#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

/// Spill hook implementing the [14] filter: drops rows beyond the cutoff at
/// spill time and proposes the (k+offset)th key of every physical run as a
/// new cutoff.
class OptimizedExternalTopK::KthKeyObserver : public SpillObserver {
 public:
  KthKeyObserver(OptimizedExternalTopK* op, uint64_t kth)
      : op_(op), kth_(kth) {}

  bool EliminateAtSpill(const Row& row) override {
    return op_->EliminateAtInput(row);
  }

  void OnRowSpilled(const Row& row) override {
    ++rows_in_run_;
    if (rows_in_run_ == kth_) {
      // This run alone proves k+offset rows at or before row.key.
      op_->ProposeCutoff(row.key);
    }
  }

  std::vector<HistogramBucket> OnRunFinished() override {
    rows_in_run_ = 0;
    return {};
  }

 private:
  OptimizedExternalTopK* op_;
  uint64_t kth_;
  uint64_t rows_in_run_ = 0;
};

OptimizedExternalTopK::OptimizedExternalTopK(const TopKOptions& options)
    : ExternalTopK(options, InMemoryPhase::kBuffer, "optimized") {}

OptimizedExternalTopK::~OptimizedExternalTopK() = default;

Result<std::unique_ptr<OptimizedExternalTopK>> OptimizedExternalTopK::Make(
    const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  if (options.early_merge_fan_in < 2) {
    return Status::InvalidArgument("early merge fan-in must be at least 2");
  }
  return std::unique_ptr<OptimizedExternalTopK>(
      new OptimizedExternalTopK(options));
}

bool OptimizedExternalTopK::EliminateAtInput(const Row& row) const {
  return cutoff_.has_value() && comparator_.KeyBeyond(row.key, *cutoff_);
}

void OptimizedExternalTopK::ProposeCutoff(double key) {
  if (!cutoff_.has_value() || comparator_.KeyLess(key, *cutoff_)) {
    const bool tightened = cutoff_.has_value();
    cutoff_ = key;
    if (TracingEnabled()) {
      TraceInstant(tightened ? "cutoff.tighten" : "cutoff.establish",
                   "filter",
                   {TraceArg("cutoff", key),
                    TraceArg("rows_consumed", stats_.rows_consumed),
                    TraceArg("rows_eliminated_input",
                             stats_.rows_eliminated_input)});
    }
  }
}

Status OptimizedExternalTopK::ConfigureRunGeneration(
    uint64_t, RunGeneratorOptions* gen) {
  observer_ = std::make_unique<KthKeyObserver>(this, options_.output_rows());
  gen->run_row_limit = options_.output_rows();
  gen->observer = observer_.get();
  return Status::OK();
}

Status OptimizedExternalTopK::WriteInputCheckpoint() {
  ManifestCheckpoint ckpt;
  ckpt.input_rows_consumed = stats_.rows_consumed;
  ckpt.run_id_bound = spill_->run_id_bound();
  ckpt.has_cutoff = cutoff_.has_value();
  if (cutoff_.has_value()) ckpt.cutoff = *cutoff_;
  spill_->SetManifestCheckpoint(ckpt);
  TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  pinned_run_id_bound_ = ckpt.run_id_bound;
  return Status::OK();
}

Status OptimizedExternalTopK::CheckpointInput() {
  rows_since_checkpoint_ = 0;
  PhaseScope phase("input.checkpoint");
  TraceSpan span("input.checkpoint", "topk",
                 {TraceArg("rows_consumed", stats_.rows_consumed)});
  // Close the current run set: every surviving row consumed so far
  // reaches disk. Add-after-Flush is safe (RunGenerator contract), so
  // input continues into a fresh run set afterwards.
  TOPK_RETURN_NOT_OK(generator_->Flush());
  TOPK_RETURN_NOT_OK(WriteInputCheckpoint());
  HitCrashPoint("optimized.mid-input");
  return Status::OK();
}

Status OptimizedExternalTopK::MaybeEarlyMerge() {
  // An early merge only helps while no cutoff exists (k exceeds run sizes):
  // merging `early_merge_fan_in` runs can prove k rows and yield a cutoff
  // much earlier than waiting for the final merge. It interrupts run
  // generation and performs a low-fan-in merge — the cost the histogram
  // algorithm avoids.
  if (!options_.enable_early_merge) return Status::OK();
  if (cutoff_.has_value()) return Status::OK();
  // Checkpointed runs are pinned: consuming one would leave its merged
  // replacement — a higher id the resume path deletes as replay-duplicated
  // — as the only copy of pre-checkpoint rows the replay never
  // re-delivers. Only runs past the last checkpoint's frontier are fair
  // game.
  std::vector<RunMeta> inputs;
  for (const RunMeta& run : spill_->runs()) {
    if (run.id >= pinned_run_id_bound_) inputs.push_back(run);
  }
  if (inputs.size() < options_.early_merge_fan_in) return Status::OK();

  PhaseScope phase("merge.early");
  TraceSpan span("merge.early", "topk",
                 {TraceArg("runs", inputs.size())});
  MergeOptions merge_options;
  merge_options.limit = options_.output_rows();
  merge_options.with_ties = options_.with_ties;
  merge_options.use_ovc = options_.use_ovc;
  merge_options.cancel = options_.cancel.get();
  MergeStats merge_stats;
  TOPK_ASSIGN_OR_RETURN(merge_stats, MergeRunsIntoOne(spill_.get(), inputs,
                                                      comparator_,
                                                      merge_options));
  if (merge_stats.rows_emitted > 0) ++early_merge_runs_registered_;
  stats_.merge_rows_written += merge_stats.rows_emitted;
  stats_.merge_rows_read += merge_stats.rows_read;
  if (merge_stats.rows_emitted >= options_.output_rows()) {
    ProposeCutoff(merge_stats.last_key);
  }
  return Status::OK();
}

Status OptimizedExternalTopK::ConsumeExternal(Row&& row) {
  if (EliminateAtInput(row)) {
    ++stats_.rows_eliminated_input;
  } else {
    TOPK_RETURN_NOT_OK(generator_->Add(std::move(row)));
    TOPK_RETURN_NOT_OK(MaybeEarlyMerge());
  }
  // Eliminated rows advance the checkpoint clock too: the checkpoint
  // bounds how much *input* a crash replays, and the replay re-delivers
  // eliminated rows just the same.
  if (options_.checkpoint_input_every_rows > 0 &&
      spill_->auto_manifest_enabled() &&
      ++rows_since_checkpoint_ >= options_.checkpoint_input_every_rows) {
    return CheckpointInput();
  }
  return Status::OK();
}

Status OptimizedExternalTopK::CheckpointForResume() {
  // The optimized handoff checkpoints input consumption too, so the
  // resumed query replays only the tail it never saw instead of
  // restarting from row zero.
  if (generator_ == nullptr) return ExternalTopK::CheckpointForResume();
  return WriteInputCheckpoint();
}

void OptimizedExternalTopK::FinalizeStats() {
  stats_.runs_created -= early_merge_runs_registered_;
  stats_.final_cutoff = cutoff_;
}

Status OptimizedExternalTopK::RestoreFromManifest() {
  const std::optional<ManifestCheckpoint> ckpt = spill_->manifest_checkpoint();
  if (!ckpt.has_value()) {
    // No input checkpoint: run generation had completed (Finish clears
    // the checkpoint at that boundary). Merge-phase resume — no
    // generator, no replay, Finish merges the restored runs.
    return Status::OK();
  }
  // Mid-input crash. Runs at or past the checkpoint's id frontier were
  // written after it; the replay the caller is about to perform
  // re-delivers exactly the rows they held, so keeping them would count
  // those rows twice.
  uint64_t dropped = 0;
  for (const RunMeta& run : spill_->runs()) {
    if (run.id >= ckpt->run_id_bound) {
      std::string path;
      TOPK_ASSIGN_OR_RETURN(path, spill_->ReleaseRun(run.id));
      TOPK_RETURN_NOT_OK(spill_->DeleteSpillFile(path));
      ++dropped;
    }
  }
  TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  if (ckpt->has_cutoff) cutoff_ = ckpt->cutoff;
  resume_input_offset_ = ckpt->input_rows_consumed;
  // Absolute input accounting continues where the checkpoint left it, so
  // the next checkpoint's input_rows_consumed stays an absolute offset.
  stats_.rows_consumed = ckpt->input_rows_consumed;
  pinned_run_id_bound_ = ckpt->run_id_bound;
  TOPK_RETURN_NOT_OK(CreateGenerator(0));
  if (TracingEnabled()) {
    TraceInstant("resume.input_checkpoint", "topk",
                 {TraceArg("replay_from", ckpt->input_rows_consumed),
                  TraceArg("runs_dropped", dropped),
                  TraceArg("cutoff_restored", ckpt->has_cutoff ? 1 : 0)});
  }
  return Status::OK();
}

}  // namespace topk
