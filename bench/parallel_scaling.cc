/// Sec 4.4 measurement: parallel top-k with a shared cutoff filter vs
/// independent per-worker filters. The paper's claim: threads sharing one
/// histogram priority queue retain "basically the same number of input
/// rows as a single thread", while independent threads each have to prove
/// k rows on their own input slice before eliminating anything — retaining
/// many more rows as the worker count grows.

#include <cstdio>

#include "bench/bench_util.h"
#include "extensions/parallel_topk.h"
#include "gen/generator.h"

int main() {
  using namespace topk;
  using namespace topk::bench;
  PrintHeader("Sec 4.4: parallel top-k, shared vs independent filters");

  const uint64_t input_rows = Scaled(1000000);
  const uint64_t k = Scaled(30000);
  const uint64_t memory_rows = Scaled(14000);
  const size_t payload = 56;
  const size_t row_bytes = sizeof(Row) + payload + 32;

  BenchDir dir("parallel");
  std::printf("N=%llu, k=%llu, total memory=%llu rows (split across "
              "workers), uniform keys.\n\n",
              static_cast<unsigned long long>(input_rows),
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(memory_rows));
  std::printf("%-8s %-8s | %-9s %-11s %-11s\n", "workers", "filter",
              "time_s", "rows_spill", "eliminated");

  int run_id = 0;
  for (size_t workers : {1, 2, 4}) {
    for (bool shared : {true, false}) {
      DatasetSpec spec;
      spec.WithRows(input_rows).WithPayload(payload, payload).WithSeed(31);

      ParallelTopK::Options options;
      options.base.k = k;
      options.base.memory_limit_bytes = memory_rows * row_bytes;
      StorageEnv env;
      options.base.env = &env;
      options.base.spill_dir = dir.Sub("run" + std::to_string(run_id++));
      options.num_workers = workers;
      options.share_filter = shared;

      auto op = ParallelTopK::Make(options);
      TOPK_CHECK(op.ok()) << op.status().ToString();
      RowGenerator gen(spec);
      Row row;
      Stopwatch watch;
      while (gen.Next(&row)) {
        Status status = (*op)->Consume(std::move(row));
        TOPK_CHECK(status.ok()) << status.ToString();
      }
      auto result = (*op)->Finish();
      TOPK_CHECK(result.ok()) << result.status().ToString();
      TOPK_CHECK(result->size() == k);
      const OperatorStats& stats = (*op)->stats();
      std::printf("%-8zu %-8s | %-9.3f %-11llu %-11llu\n", workers,
                  shared ? "shared" : "own", watch.ElapsedSeconds(),
                  static_cast<unsigned long long>(stats.rows_spilled),
                  static_cast<unsigned long long>(
                      stats.rows_eliminated_input +
                      stats.rows_eliminated_spill));
    }
  }
  std::printf(
      "\nExpected: with the shared filter, spilled rows stay near the "
      "1-worker level as workers increase; with independent filters they "
      "grow with the worker count. (Wall-clock speedup is not expected even "
      "on a multi-core host: ParallelTopK hands rows to its workers one at "
      "a time under a mutex — the retained-row counts are the reproduced "
      "claim.)\n");
  return 0;
}
