#include "topk/external_topk.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/memory_accounting.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "sort/replacement_selection.h"

namespace topk {

ExternalTopK::ExternalTopK(const TopKOptions& options, InMemoryPhase phase,
                           const char* tag)
    : options_(options), comparator_(options.direction), tag_(tag) {
  if (phase == InMemoryPhase::kBoundedHeap) {
    heap_.emplace(options.direction, options.output_rows(),
                  options.with_ties);
  }
}

// ---------------------------------------------------------------- hooks

Status ExternalTopK::CheckpointForResume() {
  TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  return spill_->FlushManifest();
}

Result<MergeStats> ExternalTopK::FinalMerge(const std::vector<RunMeta>& runs,
                                            const MergeOptions& merge_options,
                                            const RowSink& sink) {
  return MergeRuns(spill_.get(), runs, comparator_, merge_options, sink);
}

// ------------------------------------------------------------- lifecycle

std::optional<double> ExternalTopK::in_memory_cutoff() const {
  if (!heap_.has_value()) return std::nullopt;
  return heap_->cutoff();
}

void ExternalTopK::LatchFirstError(const Status& status) {
  if (!status.ok() && !IsCancellation(status.code()) && first_error_.ok()) {
    first_error_ = status;
  }
}

Status ExternalTopK::CheckCancel() {
  if (options_.cancel == nullptr || !options_.cancel->ShouldStop()) {
    return Status::OK();
  }
  return OnCancelStatus(options_.cancel->status());
}

Status ExternalTopK::OnCancelStatus(Status cause) {
  if (!IsCancellation(cause.code())) return cause;
  if (options_.on_cancel != OnCancelPolicy::kKeepForResume ||
      cancel_unwound_ || spill_ == nullptr ||
      options_.manifest_filename.empty()) {
    return cause;
  }
  // Preempted-but-resumable: perform Suspend's durable handoff before
  // surfacing the cancellation, so the runs this query already paid for
  // survive for ResumeFromManifest instead of being released.
  cancel_unwound_ = true;
  finished_ = true;
  TraceSpan span("topk.cancel_keep_for_resume", "topk");
  // The token has tripped; shield it (and detach it from the generator's
  // spill loops) so the handoff's own flush and manifest I/O complete
  // instead of re-observing the cancellation at every layer.
  CancelShield shield(options_.cancel.get());
  TOPK_RETURN_NOT_OK(DrainManifestWrite());
  if (generator_ != nullptr) {
    generator_->SetCancel(nullptr);
    TOPK_RETURN_NOT_OK(generator_->Flush());
  }
  TOPK_RETURN_NOT_OK(CheckpointForResume());
  spill_->DisownDir();
  return cause;
}

Status ExternalTopK::DrainManifestWrite() {
  Status drained = spill_->FlushManifest();
  return IsCancellation(drained.code()) ? Status::OK() : drained;
}

Status ExternalTopK::CreateGenerator(uint64_t buffered_rows) {
  RunGeneratorOptions gen;
  gen.memory_limit_bytes = options_.memory_limit_bytes;
  gen.cancel = options_.cancel.get();
  gen.arbiter = options_.effective_arbiter();
  TOPK_RETURN_NOT_OK(ConfigureRunGeneration(buffered_rows, &gen));
  if (options_.run_generation == RunGenerationKind::kReplacementSelection) {
    generator_ = std::make_unique<ReplacementSelectionRunGenerator>(
        spill_.get(), comparator_, gen);
  } else {
    generator_ = std::make_unique<QuicksortRunGenerator>(spill_.get(),
                                                         comparator_, gen);
  }
  return Status::OK();
}

Result<bool> ExternalTopK::KeepInMemory(Row& row) {
  MemoryArbiter* arbiter = options_.effective_arbiter();
  if (arbiter != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(
        lease_, arbiter->Acquire(std::string(tag_) + "-topk", 0));
  }
  size_t bytes = 0;
  if (heap_.has_value()) {
    const BoundedTopKHeap::Outcome outcome = heap_->Offer(
        row, options_.memory_limit_bytes, &stats_.rows_eliminated_input);
    if (outcome == BoundedTopKHeap::Outcome::kOverflow) return false;
    if (outcome == BoundedTopKHeap::Outcome::kEliminated) return true;
    bytes = heap_->bytes();
  } else {
    const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
    if (buffered_bytes_ + cost > options_.memory_limit_bytes) return false;
    buffered_bytes_ += cost;
    buffer_.push_back(std::move(row));
    bytes = buffered_bytes_;
  }
  TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(bytes));
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, bytes);
  return true;
}

Status ExternalTopK::SwitchToExternal() {
  const uint64_t buffered_rows =
      heap_.has_value() ? heap_->size() : buffer_.size();
  PhaseScope phase("switch_to_external");
  TraceSpan span("topk.switch_to_external", "topk",
                 {TraceArg("buffered_rows", buffered_rows)});
  TOPK_ASSIGN_OR_RETURN(spill_,
                        SpillManager::Create(options_.env, options_.spill_dir,
                                             options_.io_pipeline()));
  if (!options_.manifest_filename.empty()) {
    // Keep a manifest checkpointed from the very first run so a crash at
    // any later point finds a resumable state on disk.
    spill_->SetAutoManifest(options_.manifest_filename);
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  }
  TOPK_RETURN_NOT_OK(CreateGenerator(buffered_rows));
  // Hand the buffered rows to run generation; their order is irrelevant,
  // run generation sorts.
  std::vector<Row> rows =
      heap_.has_value() ? heap_->TakeRows() : std::exchange(buffer_, {});
  for (Row& row : rows) {
    TOPK_RETURN_NOT_OK(generator_->Add(std::move(row)));
  }
  buffered_bytes_ = 0;
  lease_.ShrinkTo(0);
  return Status::OK();
}

Status ExternalTopK::Consume(Row row) {
  // No-op when the caller (CLI, test harness) already installed the same
  // context around its consume loop — the per-row cost is then one TLS
  // read and a pointer compare.
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (resumed_ && generator_ == nullptr) {
    return Status::FailedPrecondition(
        "a merge-phase resumed operator accepts no input; its runs already "
        "hold the whole input");
  }
  Status status = RunWithAllocGuard(
      tag_, "Consume", [&] { return ConsumeImpl(std::move(row)); });
  LatchFirstError(status);
  return status;
}

Status ExternalTopK::ConsumeImpl(Row row) {
  TOPK_RETURN_NOT_OK(CheckCancel());
  Stopwatch watch;
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  ++stats_.rows_consumed;
  if (generator_ == nullptr) {
    bool kept = false;
    TOPK_ASSIGN_OR_RETURN(kept, KeepInMemory(row));
    if (kept) {
      stats_.consume_nanos += watch.ElapsedNanos();
      return Status::OK();
    }
    // Memory overflowed: switch to the external algorithm. The row that
    // overflowed is its first input row.
    TOPK_RETURN_NOT_OK(SwitchToExternal());
  }
  Status status = ConsumeExternal(std::move(row));
  if (!status.ok()) return OnCancelStatus(std::move(status));
  stats_.consume_nanos += watch.ElapsedNanos();
  return Status::OK();
}

Result<std::vector<Row>> ExternalTopK::Finish() {
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  Result<std::vector<Row>> result =
      RunWithAllocGuard(tag_, "Finish", [&] { return FinishImpl(); });
  if (!result.ok()) LatchFirstError(result.status());
  return result;
}

Result<std::vector<Row>> ExternalTopK::FinishImpl() {
  TOPK_RETURN_NOT_OK(CheckCancel());
  Stopwatch watch;
  std::vector<Row> result;
  if (generator_ == nullptr && !resumed_) {
    // The input fit in memory: nothing touched storage.
    stats_.final_cutoff = in_memory_cutoff();
    result = SortAndSlice(
        heap_.has_value() ? heap_->TakeRows() : std::move(buffer_), options_);
    lease_.Release();
  } else {
    TOPK_ASSIGN_OR_RETURN(result, MergeRunsToResult());
  }
  stats_.finish_nanos = watch.ElapsedNanos();
  if (options_.obs != nullptr) {
    options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
  }
  return result;
}

void ExternalTopK::TakeGeneratorStats() {
  const RunGeneratorStats& gen = generator_->stats();
  stats_.rows_eliminated_spill = gen.rows_eliminated_at_spill;
  stats_.rows_spilled = gen.rows_spilled;
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, gen.peak_memory_bytes);
}

Result<std::vector<Row>> ExternalTopK::MergeRunsToResult() {
  if (generator_ != nullptr) {
    {
      PhaseScope flush_phase("rungen.flush");
      TraceSpan flush_span("rungen.flush", "topk");
      Status flushed = generator_->Flush();
      if (!flushed.ok()) return OnCancelStatus(std::move(flushed));
    }
    TakeGeneratorStats();
    if (spill_->auto_manifest_enabled()) {
      // Every run is registered and checkpointed; make the manifest
      // durable so the crash point below (and any real crash between run
      // generation and the merge) finds a resumable state.
      TOPK_RETURN_NOT_OK(spill_->FlushManifest());
      HitCrashPoint("post-run-flush");
      if (spill_->manifest_checkpoint().has_value()) {
        // The whole input now lives in the runs, so a mid-input checkpoint
        // has served its purpose. Drop it: a merge-phase crash must resume
        // from the runs alone — replaying input on top of merge output
        // would double-count rows.
        spill_->ClearManifestCheckpoint();
        TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
        TOPK_RETURN_NOT_OK(spill_->FlushManifest());
      }
    }
  } else {
    // Merge-phase resume: run generation happened in the pre-crash
    // process; the restored registry totals are all that remain of it.
    stats_.rows_spilled = spill_->total_rows_spilled();
  }
  stats_.runs_created = spill_->total_runs_created();

  std::vector<Row> result;
  MergePlanStats plan_stats;
  MergeStats merge_stats;
  const auto merge_phase = [&]() -> Status {
    MergePlannerOptions planner_options;
    planner_options.fan_in = options_.merge_fan_in;
    planner_options.policy = options_.merge_policy;
    planner_options.intermediate_limit = options_.output_rows();
    planner_options.with_ties = options_.with_ties;
    planner_options.use_ovc = options_.use_ovc;
    planner_options.cancel = options_.cancel.get();
    ConfigureMergePlan(&planner_options);
    std::vector<RunMeta> final_runs;
    {
      TraceSpan plan_span("merge.reduce_runs", "topk",
                          {TraceArg("runs", spill_->run_count())});
      TOPK_ASSIGN_OR_RETURN(
          final_runs, ReduceRunsForFinalMerge(spill_.get(), comparator_,
                                              planner_options, &plan_stats));
    }
    MergeOptions merge_options;
    merge_options.limit = options_.k;
    merge_options.skip = options_.offset;
    merge_options.with_ties = options_.with_ties;
    merge_options.use_ovc = options_.use_ovc;
    merge_options.cancel = options_.cancel.get();
    PhaseScope merge_phase_scope("merge.final");
    TraceSpan merge_span("merge.final", "topk",
                         {TraceArg("runs", final_runs.size())});
    TOPK_ASSIGN_OR_RETURN(
        merge_stats, FinalMerge(final_runs, merge_options, [&](Row&& row) {
          result.push_back(std::move(row));
          return Status::OK();
        }));
    return Status::OK();
  };
  Status merged = merge_phase();
  if (!merged.ok()) {
    if (spill_->auto_manifest_enabled()) {
      // The merge failed, but the manifest still describes a consistent run
      // set on disk (merge steps delete inputs only after checkpointing).
      // Keep the directory so ResumeFromManifest can pick the query up.
      // This also covers a cancellation that surfaced mid-merge, whatever
      // the on_cancel policy: the runs are already durable, releasing them
      // would only destroy a valid manifest's backing files.
      (void)spill_->FlushManifest();
      spill_->DisownDir();
    }
    return merged;
  }
  stats_.merge_rows_written += plan_stats.intermediate_rows_written;
  stats_.merge_rows_read +=
      plan_stats.intermediate_rows_read + merge_stats.rows_read;
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  FinalizeStats();
  return result;
}

Status ExternalTopK::Suspend() {
  return RunWithAllocGuard(tag_, "Suspend", [&] { return SuspendImpl(); });
}

Status ExternalTopK::SuspendImpl() {
  ObsScope obs_scope(options_.obs);
  if (!first_error_.ok()) {
    // A prior entry point already failed; the real cause of the
    // operator's demise beats a generic precondition complaint.
    return first_error_;
  }
  if (finished_) {
    return Status::FailedPrecondition("Suspend after Finish");
  }
  if (resumed_ && generator_ == nullptr) {
    return Status::FailedPrecondition(
        "Suspend of a merge-phase resumed operator");
  }
  if (options_.manifest_filename.empty()) {
    return Status::FailedPrecondition(
        "Suspend requires TopKOptions::manifest_filename");
  }
  finished_ = true;
  TraceSpan span("topk.suspend", "topk");
  // An explicit Suspend overrides a tripped cancellation token: it IS the
  // orderly way to stop this query, so the spill and manifest work below
  // must not be interrupted by the very cancellation that prompted it.
  CancelShield shield(options_.cancel.get());
  // Everything still buffered in memory must reach a run on disk — an
  // in-memory operator spills via the normal external switch.
  if (generator_ == nullptr) {
    TOPK_RETURN_NOT_OK(SwitchToExternal());
  }
  TOPK_RETURN_NOT_OK(DrainManifestWrite());
  generator_->SetCancel(nullptr);
  TOPK_RETURN_NOT_OK(generator_->Flush());
  TOPK_RETURN_NOT_OK(CheckpointForResume());
  TakeGeneratorStats();
  stats_.runs_created = spill_->total_runs_created();
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  FinalizeStats();
  HitCrashPoint("post-manifest-checkpoint");
  spill_->DisownDir();
  return Status::OK();
}

Status ExternalTopK::OpenForResume(RestoreReport* report) {
  if (options_.manifest_filename.empty()) {
    return Status::InvalidArgument(
        "ResumeFromManifest requires TopKOptions::manifest_filename");
  }
  resumed_ = true;
  ObsScope obs_scope(options_.obs);
  TraceSpan span("topk.resume_from_manifest", "topk");
  TOPK_ASSIGN_OR_RETURN(
      spill_, SpillManager::OpenExisting(
                  options_.env, options_.spill_dir, options_.manifest_filename,
                  comparator_, options_.io_pipeline(), report));
  // Keep checkpointing across the resumed execution so another crash is
  // also recoverable.
  spill_->SetAutoManifest(options_.manifest_filename);
  return RestoreFromManifest();
}

}  // namespace topk
