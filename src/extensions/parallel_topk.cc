#include "extensions/parallel_topk.h"

#include <algorithm>
#include <deque>

#include "obs/trace.h"
#include "row/serialization.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"

namespace topk {

SharedCutoffFilter::SharedCutoffFilter(const CutoffFilter::Options& options)
    : comparator_(options.direction), filter_(options) {}

bool SharedCutoffFilter::EliminateKey(double key) const {
  if (!has_cutoff_.load(std::memory_order_acquire)) return false;
  return comparator_.KeyBeyond(key,
                               cutoff_.load(std::memory_order_relaxed));
}

void SharedCutoffFilter::PublishCutoff() {
  const std::optional<double> c = filter_.cutoff();
  if (c.has_value()) {
    cutoff_.store(*c, std::memory_order_relaxed);
    has_cutoff_.store(true, std::memory_order_release);
  }
}

void SharedCutoffFilter::RowSpilled(double key) {
  std::lock_guard<std::mutex> lock(mu_);
  filter_.RowSpilled(key);
  PublishCutoff();
}

std::vector<HistogramBucket> SharedCutoffFilter::RunFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  return filter_.RunFinished();
}

void SharedCutoffFilter::InsertBucket(HistogramBucket bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  filter_.InsertBucket(bucket);
  PublishCutoff();
}

void SharedCutoffFilter::ProposeCutoff(double key) {
  std::lock_guard<std::mutex> lock(mu_);
  filter_.ProposeCutoff(key);
  PublishCutoff();
}

std::optional<double> SharedCutoffFilter::cutoff() const {
  if (!has_cutoff_.load(std::memory_order_acquire)) return std::nullopt;
  return cutoff_.load(std::memory_order_relaxed);
}

namespace {

/// Routes a worker's spill events into the shared filter. Note: the shared
/// filter's histogram builder is also shared, which would interleave
/// buckets across workers' runs; instead each worker builds its own run
/// histograms locally and only the *buckets* go to the shared model.
class WorkerObserver : public SpillObserver {
 public:
  WorkerObserver(SharedCutoffFilter* shared, const BucketSizingPolicy& policy)
      : shared_(shared), builder_(policy) {}

  bool EliminateAtSpill(const Row& row) override {
    return shared_->Eliminate(row);
  }

  void OnRowSpilled(const Row& row) override {
    std::optional<HistogramBucket> bucket = builder_.AddSpilledRow(row.key);
    if (bucket.has_value()) {
      // Feed the shared model bucket-by-bucket; RowSpilled would rebuild
      // buckets with the shared builder, so insert directly via the only
      // mutation path that takes complete buckets.
      shared_->InsertBucket(*bucket);
    }
  }

  std::vector<HistogramBucket> OnRunFinished() override {
    return builder_.FinishRun();
  }

 private:
  SharedCutoffFilter* shared_;
  RunHistogramBuilder builder_;
};

}  // namespace

struct ParallelTopK::Worker {
  size_t index = 0;
  /// Private filter when the shared one is disabled (Sec 4.4 contrast).
  std::unique_ptr<SharedCutoffFilter> own_filter;
  std::unique_ptr<WorkerObserver> observer;
  std::unique_ptr<RunGenerator> generator;
  std::thread thread;

  std::mutex mu;
  std::condition_variable cv_producer;
  std::condition_variable cv_consumer;
  std::deque<Row> queue;
  bool closed = false;
  Status status;
};

ParallelTopK::ParallelTopK(const Options& options)
    : options_(options), comparator_(options.base.direction) {}

ParallelTopK::~ParallelTopK() {
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->closed = true;
    }
    worker->cv_consumer.notify_all();
    if (worker->thread.joinable()) worker->thread.join();
  }
}

Result<std::unique_ptr<ParallelTopK>> ParallelTopK::Make(
    const Options& options) {
  TOPK_RETURN_NOT_OK(
      ValidateTopKOptions(options.base, /*requires_storage=*/true));
  if (options.num_workers == 0) {
    return Status::InvalidArgument("need at least one worker");
  }
  auto op = std::unique_ptr<ParallelTopK>(new ParallelTopK(options));
  TOPK_RETURN_NOT_OK(op->Start());
  return op;
}

Status ParallelTopK::Start() {
  TOPK_ASSIGN_OR_RETURN(
      spill_,
      SpillManager::Create(options_.base.env, options_.base.spill_dir,
                           options_.base.io_pipeline()));

  const size_t per_worker_memory =
      std::max<size_t>(options_.base.memory_limit_bytes /
                           options_.num_workers,
                       64 * 1024);
  const uint64_t avg_row_guess = 128 + kPerRowOverheadBytes;
  const uint64_t expected_run_rows =
      std::min(2 * std::max<uint64_t>(per_worker_memory / avg_row_guess, 1),
               options_.base.output_rows());

  CutoffFilter::Options filter_options;
  filter_options.k = options_.base.output_rows();
  filter_options.direction = options_.base.direction;
  filter_options.target_buckets_per_run =
      options_.base.histogram_buckets_per_run;
  filter_options.target_run_rows = expected_run_rows;
  filter_options.memory_limit_bytes =
      options_.base.histogram_memory_limit_bytes;
  // Cutoff-evolution timeline for parallel execution. The callback fires
  // under the shared filter's mutex on whichever worker thread sharpened
  // the cutoff, so only filter-internal fields are reported — operator
  // counters would race.
  filter_options.on_cutoff_change =
      [](const CutoffFilter::CutoffUpdate& update) {
        if (!TracingEnabled()) return;
        TraceInstant(update.tightened ? "cutoff.tighten" : "cutoff.establish",
                     "filter",
                     {TraceArg("cutoff", update.cutoff),
                      TraceArg("proposed", update.proposed ? 1 : 0),
                      TraceArg("bucket_count", update.bucket_count),
                      TraceArg("tracked_rows", update.tracked_rows)});
      };
  if (options_.share_filter) {
    filter_ = std::make_unique<SharedCutoffFilter>(filter_options);
  }

  const BucketSizingPolicy policy(options_.base.histogram_buckets_per_run,
                                  expected_run_rows);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    if (!options_.share_filter) {
      worker->own_filter = std::make_unique<SharedCutoffFilter>(filter_options);
    }
    worker->observer = std::make_unique<WorkerObserver>(
        options_.share_filter ? filter_.get() : worker->own_filter.get(),
        policy);
    RunGeneratorOptions gen_options;
    gen_options.memory_limit_bytes = per_worker_memory;
    gen_options.run_row_limit = options_.base.output_rows();
    gen_options.observer = worker->observer.get();
    worker->generator = std::make_unique<ReplacementSelectionRunGenerator>(
        spill_.get(), comparator_, gen_options);
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(w); });
    workers_.push_back(std::move(worker));
  }
  return Status::OK();
}

void ParallelTopK::WorkerLoop(Worker* worker) {
  TraceSpan span("parallel.worker", "topk",
                 {TraceArg("worker", worker->index)});
  for (;;) {
    Row row;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv_consumer.wait(
          lock, [&] { return worker->closed || !worker->queue.empty(); });
      if (worker->queue.empty()) return;  // closed and drained
      row = std::move(worker->queue.front());
      worker->queue.pop_front();
    }
    worker->cv_producer.notify_one();
    if (WorkerFilter(worker)->Eliminate(row)) continue;
    Status status = worker->generator->Add(std::move(row));
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(worker->mu);
      if (worker->status.ok()) worker->status = status;
      return;
    }
  }
}

Status ParallelTopK::Consume(Row row) {
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  // Reject what the run format cannot hold here, on the caller's row, like
  // every other operator entry point — not later on a worker thread, where
  // the error would be latched and blamed on an unrelated Consume.
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  ++stats_.rows_consumed;
  Worker* worker = workers_[next_worker_].get();
  next_worker_ = (next_worker_ + 1) % workers_.size();
  // Producer-side filtering: the paper's flow-control variant sends the
  // current cutoff back to producers so they stop shipping doomed rows.
  if (WorkerFilter(worker)->Eliminate(row)) {
    ++stats_.rows_eliminated_input;
    return Status::OK();
  }
  {
    std::unique_lock<std::mutex> lock(worker->mu);
    worker->cv_producer.wait(lock, [&] {
      return worker->queue.size() < options_.queue_capacity ||
             !worker->status.ok();
    });
    if (!worker->status.ok()) return worker->status;
    worker->queue.push_back(std::move(row));
  }
  worker->cv_consumer.notify_one();
  return Status::OK();
}

Result<std::vector<Row>> ParallelTopK::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  Stopwatch watch;
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->closed = true;
    }
    worker->cv_consumer.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    TOPK_RETURN_NOT_OK(worker->status);
    TOPK_RETURN_NOT_OK(worker->generator->Flush());
    stats_.rows_spilled += worker->generator->stats().rows_spilled;
    stats_.rows_eliminated_spill +=
        worker->generator->stats().rows_eliminated_at_spill;
    stats_.peak_memory_bytes +=
        worker->generator->stats().peak_memory_bytes;
  }
  stats_.runs_created = spill_->total_runs_created();

  // One merge over every worker's runs produces the global answer.
  MergePlannerOptions planner_options;
  planner_options.fan_in = options_.base.merge_fan_in;
  planner_options.policy = MergePolicy::kLowestKeysFirst;
  planner_options.intermediate_limit = options_.base.output_rows();
  planner_options.use_ovc = options_.base.use_ovc;
  MergePlanStats plan_stats;
  std::vector<RunMeta> final_runs;
  TOPK_ASSIGN_OR_RETURN(
      final_runs, ReduceRunsForFinalMerge(spill_.get(), comparator_,
                                          planner_options, &plan_stats));
  stats_.merge_rows_written = plan_stats.intermediate_rows_written;

  std::vector<Row> result;
  MergeOptions merge_options;
  merge_options.limit = options_.base.k;
  merge_options.skip = options_.base.offset;
  merge_options.use_ovc = options_.base.use_ovc;
  MergeStats merge_stats;
  TOPK_ASSIGN_OR_RETURN(merge_stats,
                        MergeRuns(spill_.get(), final_runs, comparator_,
                                  merge_options, [&](Row&& r) {
                                    result.push_back(std::move(r));
                                    return Status::OK();
                                  }));
  stats_.merge_rows_read =
      plan_stats.intermediate_rows_read + merge_stats.rows_read;
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  if (filter_ != nullptr) {
    stats_.final_cutoff = filter_->cutoff();
  } else {
    // Best (sharpest) of the independent workers' cutoffs.
    RowComparator cmp(options_.base.direction);
    for (const auto& worker : workers_) {
      const auto cutoff = worker->own_filter->cutoff();
      if (!cutoff.has_value()) continue;
      if (!stats_.final_cutoff.has_value() ||
          cmp.KeyLess(*cutoff, *stats_.final_cutoff)) {
        stats_.final_cutoff = cutoff;
      }
    }
  }
  stats_.finish_nanos = watch.ElapsedNanos();
  return result;
}

SharedCutoffFilter* ParallelTopK::WorkerFilter(Worker* worker) const {
  return filter_ != nullptr ? filter_.get() : worker->own_filter.get();
}

}  // namespace topk
