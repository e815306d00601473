/// topk_perfbench: the compiled half of perfbench (run.py is the other).
/// Every measurement is taken here, outside the library, around calls to
/// the library's public functions. Three modes, one JSON object on stdout
/// each:
///
///   topk_perfbench reference --workload W --seed S [--scale X]
///       The reference answer: a plain in-memory partial sort over the
///       generated (key, id) pairs, reported as a digest of
///       (key, id, payload) in output order, plus the HostProbe time
///       sampled before and after it.
///
///   topk_perfbench query --workload W --op OP --seed S --dir D
///                    [--scale X] [--spans FILE] [--obs 1] [--corrupt 1]
///       One top-k query. Rows come from RowGenerator::Next in batches on
///       their own timer; the operator timer covers only Consume and
///       Finish, and a second clock takes the calling thread's CPU time
///       inside the same calls. A HostProbe sample is taken before the
///       operator is made and another after it is destroyed, while no
///       operator thread is alive. --spans appends one span per batch to
///       FILE, --obs runs the query under an ObsContext with the tracer on,
///       --corrupt alters one result row before the digest (the self-test's
///       bad answer).
///
///   topk_perfbench layers --workload W --seed S --dir D --spans FILE
///                    [--scale X]
///       The traced per-layer replay: the workload's rows go through the
///       gen, row, common, histogram, sort and io layers one at a time,
///       each batch of calls wrapped in a span written to FILE.

#include <fcntl.h>
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/memory_accounting.h"
#include "common/thread_pool.h"
#include "extensions/parallel_topk.h"
#include "gen/generator.h"
#include "histogram/cutoff_filter.h"
#include "io/run_file.h"
#include "io/spill_manager.h"
#include "io/storage_env.h"
#include "model/analytic_model.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/normalized_key.h"
#include "row/serialization.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"
#include "topk/operator_factory.h"

namespace {

using namespace topk;

/// Rows per input batch: large enough that two clock reads per batch cost
/// nothing measurable, small enough that a batch stays in cache.
constexpr size_t kBatchRows = 1024;
constexpr size_t kPayloadBytes = 56;
/// The io layer writes at most this many of the workload's rows, as sorted
/// runs of kIoLayerRunRows rows each.
constexpr uint64_t kIoLayerMaxRows = 1000000;
constexpr uint64_t kIoLayerRunRows = 100000;
/// One HostProbe sample (about 70 ms on the tuning host): kProbeBlocks
/// blocks of kProbeRows rows sorted, then kProbeCopies copies of a
/// kProbeCopyBytes buffer. The buffer is above glibc's largest mmap
/// threshold, so it is unmapped when the sample ends.
constexpr size_t kProbeRows = 1 << 16;
constexpr int kProbeBlocks = 3;
constexpr size_t kProbeCopyBytes = 48 << 20;
constexpr int kProbeCopies = 3;

/// Receives values computed only to be measured, so the compiler keeps the
/// work that produced them.
volatile uint64_t g_sink = 0;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far by the calling thread.
int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "topk_perfbench: %s\n", message.c_str());
  std::exit(2);
}

void CheckOk(const Status& status, const char* where) {
  if (!status.ok()) Die(std::string(where) + ": " + status.ToString());
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  uint64_t rows = 0;
  uint64_t k = 0;
  KeyDistribution dist = KeyDistribution::kUniform;
  double fal_shape = 1.25;
  size_t memory_bytes = 0;
  int64_t io_latency_nanos = 0;
};

/// The three workloads. `scale` shrinks rows, k and memory together (the
/// self-test runs at 0.01).
Workload GetWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  if (name == "uniform_k100k" || name == "disagg_5ms") {
    w.rows = 4000000;
    w.k = 100000;
    w.memory_bytes = 4 << 20;
    if (name == "disagg_5ms") w.io_latency_nanos = 5'000'000;
  } else if (name == "fal_k500k") {
    w.rows = 2000000;
    w.k = 500000;
    w.dist = KeyDistribution::kFal;
    w.memory_bytes = 2 << 20;
  } else {
    Die("unknown workload '" + name + "'");
  }
  if (scale != 1.0) {
    w.rows = std::max<uint64_t>(1000, static_cast<uint64_t>(w.rows * scale));
    w.k = std::max<uint64_t>(10, static_cast<uint64_t>(w.k * scale));
    w.memory_bytes = std::max<size_t>(
        32 << 10, static_cast<size_t>(static_cast<double>(w.memory_bytes) *
                                      scale));
  }
  return w;
}

DatasetSpec MakeSpec(const Workload& w, uint64_t seed) {
  // Same construction as topk_cli, so work counters match it at one seed.
  DatasetSpec spec;
  spec.WithRows(w.rows)
      .WithDistribution(w.dist)
      .WithPayload(kPayloadBytes, kPayloadBytes)
      .WithSeed(seed);
  spec.keys.fal_shape = w.fal_shape;
  return spec;
}

TopKOptions BaseOptions(const Workload& w, StorageEnv* env,
                        const std::string& dir) {
  TopKOptions options;
  options.k = w.k;
  options.memory_limit_bytes = w.memory_bytes;
  options.io_background_threads = 2;
  options.env = env;
  options.spill_dir = dir;
  return options;
}

StorageEnv::Options EnvOptions(const Workload& w) {
  StorageEnv::Options options;
  options.write_latency_nanos = w.io_latency_nanos;
  options.read_latency_nanos = w.io_latency_nanos;
  return options;
}

// ------------------------------------------------------------------ digests

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t PayloadHash(const std::string& payload) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : payload) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

uint64_t KeyBits(double key) {
  uint64_t bits = 0;
  std::memcpy(&bits, &key, sizeof(bits));
  return bits;
}

struct DigestRow {
  double key;
  uint64_t id;
  uint64_t payload_hash;
};

uint64_t Digest(const std::vector<DigestRow>& rows, size_t count) {
  uint64_t h = 0;
  for (size_t i = 0; i < count; ++i) {
    h = Mix(h, KeyBits(rows[i].key));
    h = Mix(h, rows[i].id);
    h = Mix(h, rows[i].payload_hash);
  }
  return h;
}

// -------------------------------------------------------------------- spans

/// Spans recorded by the benchmark around its calls into the library, kept
/// in memory and appended to a JSON-lines file at the end. A span's parent
/// is the stage or query span that caused it; spans of one query or stage
/// share `trace`.
class SpanLog {
 public:
  /// Opens a root span (a query or a layer stage); returns its id.
  int64_t Begin(const std::string& trace, const std::string& name) {
    spans_.push_back({trace, name, next_id_, 0, NowNanos(), 0});
    return next_id_++;
  }
  void End(int64_t id) {
    spans_[static_cast<size_t>(id - 1)].end = NowNanos();
  }
  /// Records an already-timed interval.
  void Add(const std::string& trace, const char* name, int64_t parent,
           int64_t start, int64_t end) {
    spans_.push_back({trace, name, next_id_++, parent, start, end});
  }
  void Append(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::app);
    for (const Span& s : spans_) {
      out << "{\"trace\":\"" << s.trace << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << "}\n";
    }
    if (!out) Die("cannot write span file " + path);
  }

 private:
  struct Span {
    std::string trace;
    std::string name;
    int64_t id;
    int64_t parent;
    int64_t start;
    int64_t end;
  };
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

// ------------------------------------------------------------- json output

class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Field(key, buf);
  }
  void Int(const std::string& key, uint64_t v) {
    Field(key, std::to_string(v));
  }
  void Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    Field(key, quoted + "\"");
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Field(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
  }
  std::string body_;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

uint64_t CounterValue(const char* name) {
  return GlobalMetrics().GetCounter(name)->value();
}

/// Restarts the process's peak-RSS count (VmHWM) from its current RSS.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) Die("cannot reset the peak RSS through /proc/self/clear_refs");
}

/// Peak RSS since the last ResetPeakRss, from /proc/self/status.
uint64_t PeakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  Die("no VmHWM in /proc/self/status");
}

/// Flushes the spill filesystem so one query's dirty pages are not written
/// back during the next query.
void SyncFs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// `amount` (nanoseconds, or a count) per row; 0 when there were no rows.
double PerRow(double amount, uint64_t rows) {
  return rows == 0 ? 0.0 : amount / static_cast<double>(rows);
}

double MbPerS(uint64_t bytes, int64_t nanos) {
  return nanos <= 0 ? 0.0
                    : static_cast<double>(bytes) / 1e6 /
                          (static_cast<double>(nanos) * 1e-9);
}

/// Benchmark-owned work shaped like a top-k operator's that samples how
/// fast the host runs: rows of a random key and a fresh 56-byte heap
/// payload, generated and sorted by key in blocks, then copies of a buffer
/// too large for the private caches, the memory traffic of spilling. The
/// host's speed drifts with its other tenants' cache and memory use, and
/// these two parts track that drift best. The probe calls nothing in the
/// library and runs only while no operator thread is alive, before a query
/// and after it, so the operator neither competes with it nor shares its
/// timing; its memory is returned to the system when a sample ends.
double HostProbeMs() {
  std::vector<char> from(kProbeCopyBytes, 1);
  std::vector<char> to(kProbeCopyBytes, 2);
  std::vector<std::pair<uint64_t, std::string>> rows(kProbeRows);
  uint64_t state = 0x1234567;
  const int64_t start = NowNanos();
  for (int block = 0; block < kProbeBlocks; ++block) {
    for (auto& [key, payload] : rows) {
      key = state = Mix(state, block);
      payload = std::string(kPayloadBytes, '\0');
      for (size_t i = 0; i + 8 <= kPayloadBytes; i += 8) {
        state = Mix(state, i);
        std::memcpy(payload.data() + i, &state, 8);
      }
    }
    std::sort(rows.begin(), rows.end());
  }
  for (int copy = 0; copy < kProbeCopies; ++copy) {
    from[static_cast<size_t>(copy)] = static_cast<char>(rows[copy].first);
    std::memcpy(to.data(), from.data(), from.size());
  }
  const int64_t end = NowNanos();
  g_sink = rows[kProbeRows / 2].first ^ static_cast<uint64_t>(to[kProbeCopies]);
  rows = {};
  malloc_trim(0);
  return (end - start) * 1e-6;
}

/// Fills `batch` from `gen`; returns the number of rows produced.
size_t FillBatch(RowGenerator* gen, std::vector<Row>* batch) {
  size_t count = 0;
  while (count < batch->size() && gen->Next(&(*batch)[count])) ++count;
  return count;
}

// ---------------------------------------------------------------- reference

int RunReference(const Workload& w, uint64_t seed) {
  const double probe_before = HostProbeMs();
  RowGenerator gen(MakeSpec(w, seed));
  std::vector<DigestRow> all;
  all.reserve(w.rows);
  Row row;
  while (gen.Next(&row)) {
    if (std::isnan(row.key)) Die("reference: NaN key in generated input");
    all.push_back({row.key, row.id, PayloadHash(row.payload)});
  }
  const size_t k = std::min<size_t>(w.k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end(), [](const DigestRow& a, const DigestRow& b) {
                      return a.key < b.key || (a.key == b.key && a.id < b.id);
                    });
  JsonOut out;
  out.Int("rows", k);
  out.Str("digest", Hex(Digest(all, k)));
  out.Num("probe_ms", (probe_before + HostProbeMs()) / 2);
  out.Print();
  return 0;
}

// -------------------------------------------------------------------- query

/// One operator behind a uniform Consume/Finish/stats surface: the four
/// TopKOperator algorithms, or ParallelTopK.
struct Query {
  std::unique_ptr<TopKOperator> op;
  std::unique_ptr<ParallelTopK> parallel;

  Status Consume(Row row) {
    return op != nullptr ? op->Consume(std::move(row))
                         : parallel->Consume(std::move(row));
  }
  Result<std::vector<Row>> Finish() {
    return op != nullptr ? op->Finish() : parallel->Finish();
  }
  const OperatorStats& stats() const {
    return op != nullptr ? op->stats() : parallel->stats();
  }
};

Result<Query> MakeQuery(const std::string& op_name, const Workload& w,
                        TopKOptions options) {
  Query query;
  if (op_name == "parallel") {
    // Two workers sharing one cutoff filter, one I/O thread.
    ParallelTopK::Options parallel_options;
    options.io_background_threads = 1;
    parallel_options.base = options;
    parallel_options.num_workers = 2;
    parallel_options.share_filter = true;
    TOPK_ASSIGN_OR_RETURN(query.parallel, ParallelTopK::Make(parallel_options));
    return query;
  }
  TopKAlgorithm algorithm;
  if (!ParseTopKAlgorithm(op_name, &algorithm)) {
    return Status::InvalidArgument("unknown operator '" + op_name + "'");
  }
  if (algorithm == TopKAlgorithm::kHeap) {
    // Output-sized memory, as the Figure 6 cost study grants it.
    options.memory_limit_bytes =
        (w.k + 16) * (sizeof(Row) + kPayloadBytes + kPerRowOverheadBytes);
    options.allow_unbounded_memory = true;
  }
  TOPK_ASSIGN_OR_RETURN(query.op, MakeTopKOperator(algorithm, options));
  return query;
}

struct QueryArgs {
  std::string op;
  std::string dir;
  std::string spans;
  bool obs = false;
  bool corrupt = false;
};

int RunQuery(const Workload& w, uint64_t seed, const QueryArgs& args) {
  const double probe_before = HostProbeMs();
  ResetPeakRss();
  StorageEnv env(EnvOptions(w));
  TopKOptions options = BaseOptions(w, &env, args.dir);
  std::shared_ptr<ObsContext> obs;
  std::unique_ptr<ObsScope> obs_scope;
  if (args.obs) {
    obs = ObsContext::Create(args.op);
    options.obs = obs;
    obs_scope = std::make_unique<ObsScope>(obs);
    GlobalTracer().Start();
  }
  const uint64_t blocks_before = CounterValue("io.prefetch.blocks");
  const uint64_t unconsumed_before =
      CounterValue("io.prefetch.blocks_unconsumed");

  SpanLog spans;
  const std::string trace = w.name + "/" + args.op;
  const int64_t root = spans.Begin(trace, "query." + args.op);
  const auto fail = [&](const Status& status) {
    JsonOut out;
    out.Str("op", args.op);
    out.Str("error", status.ToString());
    out.Print();
    return 3;
  };

  Result<Query> made = MakeQuery(args.op, w, options);
  if (!made.ok()) return fail(made.status());
  Query query = std::move(*made);

  RowGenerator gen(MakeSpec(w, seed));
  std::vector<Row> batch(kBatchRows);
  int64_t gen_nanos = 0, consume_nanos = 0, cpu_nanos = 0;
  uint64_t rows_in = 0, input_bytes = 0;
  const bool traced = !args.spans.empty();
  for (;;) {
    const int64_t t0 = NowNanos();
    const size_t count = FillBatch(&gen, &batch);
    const int64_t t1 = NowNanos();
    gen_nanos += t1 - t0;
    if (count == 0) break;
    for (size_t i = 0; i < count; ++i) input_bytes += batch[i].SerializedSize();
    rows_in += count;
    const int64_t c2 = ThreadCpuNanos();
    const int64_t t2 = NowNanos();
    for (size_t i = 0; i < count; ++i) {
      Status status = query.Consume(std::move(batch[i]));
      if (!status.ok()) return fail(status);
    }
    const int64_t t3 = NowNanos();
    cpu_nanos += ThreadCpuNanos() - c2;
    consume_nanos += t3 - t2;
    if (traced) {
      spans.Add(trace, "gen.batch", root, t0, t1);
      spans.Add(trace, "topk.consume_batch", root, t2, t3);
    }
  }
  const int64_t c4 = ThreadCpuNanos();
  const int64_t t4 = NowNanos();
  Result<std::vector<Row>> result = query.Finish();
  const int64_t t5 = NowNanos();
  cpu_nanos += ThreadCpuNanos() - c4;
  if (!result.ok()) return fail(result.status());
  if (traced) spans.Add(trace, "topk.finish", root, t4, t5);
  spans.End(root);

  if (args.corrupt && !result->empty()) {
    (*result)[result->size() / 2].payload[0] ^= 1;
  }
  std::vector<DigestRow> digest_rows;
  digest_rows.reserve(result->size());
  for (const Row& row : *result) {
    digest_rows.push_back({row.key, row.id, PayloadHash(row.payload)});
  }

  const OperatorStats& stats = query.stats();
  const IoStats::Snapshot io = env.stats()->snapshot();
  JsonOut out;
  out.Str("op", args.op);
  out.Int("rows_in", rows_in);
  out.Int("input_bytes", input_bytes);
  out.Num("gen_s", gen_nanos * 1e-9);
  out.Num("consume_s", consume_nanos * 1e-9);
  out.Num("finish_s", (t5 - t4) * 1e-9);
  out.Num("op_s", (consume_nanos + t5 - t4) * 1e-9);
  out.Num("op_cpu_s", cpu_nanos * 1e-9);
  out.Num("storage_latency_s", w.io_latency_nanos * 1e-9);
  out.Int("result_rows", result->size());
  out.Str("digest", Hex(Digest(digest_rows, digest_rows.size())));
  out.Int("rows_consumed", stats.rows_consumed);
  out.Int("rows_eliminated_input", stats.rows_eliminated_input);
  out.Int("rows_spilled", stats.rows_spilled);
  out.Int("runs_created", stats.runs_created);
  out.Int("merge_rows_written", stats.merge_rows_written);
  out.Int("merge_rows_read", stats.merge_rows_read);
  out.Int("peak_memory_bytes", stats.peak_memory_bytes);
  out.Int("buckets_inserted", stats.filter_buckets_inserted);
  out.Int("consolidations", stats.filter_consolidations);
  out.Int("io_bytes_written", io.bytes_written);
  out.Int("io_bytes_read", io.bytes_read);
  out.Int("io_write_calls", io.write_calls);
  out.Int("io_read_calls", io.read_calls);
  out.Num("io_write_busy_s", io.write_nanos * 1e-9);
  out.Num("io_read_busy_s", io.read_nanos * 1e-9);
  out.Int("prefetch_blocks",
          CounterValue("io.prefetch.blocks") - blocks_before);
  out.Int("prefetch_unconsumed",
          CounterValue("io.prefetch.blocks_unconsumed") - unconsumed_before);
  out.Int("peak_rss_kib", PeakRssKiB());

  if (args.obs) GlobalTracer().Stop();
  // Outside every timer: drop the operator (removing its spill directory)
  // and flush the filesystem before the next query starts.
  query = Query();
  std::error_code ec;
  std::filesystem::remove_all(args.dir, ec);
  SyncFs(std::filesystem::path(args.dir).parent_path().string());
  out.Num("probe_ms", (probe_before + HostProbeMs()) / 2);
  spans.Append(args.spans);
  out.Print();
  return 0;
}

// ------------------------------------------------------------------- layers

/// SpillObserver that routes run generation's spill hooks into a
/// CutoffFilter, as the histogram operator does, and records the spilled
/// key sequence with its run boundaries for a later RowSpilled replay.
class RecordingFilterObserver : public SpillObserver {
 public:
  explicit RecordingFilterObserver(CutoffFilter* filter) : filter_(filter) {}
  bool EliminateAtSpill(const Row& row) override {
    return filter_->Eliminate(row);
  }
  void OnRowSpilled(const Row& row) override {
    filter_->RowSpilled(row.key);
    keys.push_back(row.key);
  }
  std::vector<HistogramBucket> OnRunFinished() override {
    run_ends.push_back(keys.size());
    return filter_->RunFinished();
  }

  std::vector<double> keys;
  std::vector<size_t> run_ends;

 private:
  CutoffFilter* filter_;
};

/// Per-layer metric values by name.
using LayerResults = std::map<std::string, double>;

/// gen, row and common: one pass over the workload's rows.
void GenRowLayers(const Workload& w, uint64_t seed, SpanLog* spans,
                  LayerResults* out) {
  const std::string trace = w.name + "/gen_row";
  const int64_t root = spans->Begin(trace, "layer.gen_row");
  RowGenerator gen(MakeSpec(w, seed));
  std::vector<Row> batch(kBatchRows);
  std::vector<NormalizedKey> norms(kBatchRows);
  std::string buf;
  std::string block;  // serialized rows gathered to one run-file block
  Row parsed;
  int64_t gen_ns = 0, norm_ns = 0, ser_ns = 0, crc_ns = 0, de_ns = 0;
  uint64_t rows = 0, crc_bytes = 0;
  uint32_t crc = 0;
  uint64_t sink = 0;
  for (;;) {
    const int64_t t0 = NowNanos();
    const size_t count = FillBatch(&gen, &batch);
    const int64_t t1 = NowNanos();
    if (count == 0) break;
    rows += count;
    for (size_t i = 0; i < count; ++i) {
      norms[i] = NormalizedKey::Encode(batch[i].key, batch[i].id,
                                       SortDirection::kAscending);
    }
    const int64_t t2 = NowNanos();
    buf.clear();
    for (size_t i = 0; i < count; ++i) SerializeRow(batch[i], &buf);
    const int64_t t3 = NowNanos();
    size_t offset = 0;
    while (offset < buf.size()) {
      CheckOk(DeserializeRow(buf.data(), buf.size(), &offset, &parsed),
              "DeserializeRow");
      sink += parsed.id;
    }
    const int64_t t4 = NowNanos();
    gen_ns += t1 - t0;
    norm_ns += t2 - t1;
    ser_ns += t3 - t2;
    de_ns += t4 - t3;
    for (size_t i = 0; i < count; ++i) sink ^= norms[i].key_word;
    spans->Add(trace, "gen.batch", root, t0, t1);
    spans->Add(trace, "row.normalize", root, t1, t2);
    spans->Add(trace, "row.serialize", root, t2, t3);
    spans->Add(trace, "row.deserialize", root, t3, t4);
    for (size_t off = 0; off < buf.size();) {
      const size_t take =
          std::min(kDefaultBlockBytes - block.size(), buf.size() - off);
      block.append(buf, off, take);
      off += take;
      if (block.size() < kDefaultBlockBytes) break;
      const int64_t c0 = NowNanos();
      crc = Crc32c(crc, block.data(), block.size());
      const int64_t c1 = NowNanos();
      crc_ns += c1 - c0;
      crc_bytes += block.size();
      spans->Add(trace, "common.crc32c", root, c0, c1);
      block.clear();
    }
  }
  spans->End(root);
  g_sink = sink ^ crc;
  (*out)["gen.ns_per_row"] = PerRow(gen_ns, rows);
  (*out)["row.normalize_ns_per_row"] = PerRow(norm_ns, rows);
  (*out)["row.serialize_ns_per_row"] = PerRow(ser_ns, rows);
  (*out)["row.deserialize_ns_per_row"] = PerRow(de_ns, rows);
  (*out)["common.crc32c_mb_s"] = MbPerS(crc_bytes, crc_ns);
}

/// histogram: the cutoff filter driven by replacement selection over the
/// workload, as in the histogram operator after it goes external; then the
/// recorded spill sequence replayed through RowSpilled/RunFinished alone.
void HistogramLayer(const Workload& w, uint64_t seed, const std::string& dir,
                    SpanLog* spans, LayerResults* out) {
  const std::string trace = w.name + "/histogram";
  const int64_t root = spans->Begin(trace, "layer.histogram");
  StorageEnv env(EnvOptions(w));
  const TopKOptions options = BaseOptions(w, &env, dir);
  Result<std::unique_ptr<SpillManager>> spill =
      SpillManager::Create(&env, dir, options.io_pipeline());
  CheckOk(spill.status(), "SpillManager::Create");

  Row probe_row;
  RowGenerator(MakeSpec(w, seed)).Next(&probe_row);
  const uint64_t memory_rows =
      w.memory_bytes / (probe_row.MemoryFootprint() + kPerRowOverheadBytes);
  CutoffFilter::Options filter_options;
  filter_options.k = w.k;
  filter_options.target_buckets_per_run = options.histogram_buckets_per_run;
  filter_options.memory_limit_bytes = options.histogram_memory_limit_bytes;
  filter_options.target_run_rows = std::min<uint64_t>(2 * memory_rows, w.k);
  CutoffFilter filter(filter_options);
  RecordingFilterObserver observer(&filter);
  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = w.memory_bytes;
  gen_options.run_row_limit = w.k;
  gen_options.observer = &observer;
  gen_options.run_index_stride =
      std::max<uint64_t>(16, filter_options.target_run_rows / 64);
  RowComparator comparator;
  ReplacementSelectionRunGenerator rs(spill->get(), comparator, gen_options);

  RowGenerator gen(MakeSpec(w, seed));
  std::vector<Row> batch(kBatchRows);
  std::vector<char> keep(kBatchRows);
  int64_t probe_ns = 0;
  uint64_t rows = 0;
  for (;;) {
    const size_t count = FillBatch(&gen, &batch);
    if (count == 0) break;
    rows += count;
    const int64_t t0 = NowNanos();
    for (size_t i = 0; i < count; ++i) {
      keep[i] = !filter.EliminateKey(batch[i].key);
    }
    const int64_t t1 = NowNanos();
    for (size_t i = 0; i < count; ++i) {
      if (keep[i]) CheckOk(rs.Add(std::move(batch[i])), "RS Add");
    }
    const int64_t t2 = NowNanos();
    probe_ns += t1 - t0;
    spans->Add(trace, "histogram.probe", root, t0, t1);
    spans->Add(trace, "histogram.rs_add", root, t1, t2);
  }
  CheckOk(rs.Flush(), "RS Flush");

  // RowSpilled/RunFinished alone, on the recorded spill sequence.
  CutoffFilter replay(filter_options);
  int64_t spilled_ns = 0;
  size_t next_end = 0;
  for (size_t begin = 0; begin < observer.keys.size(); begin += kBatchRows) {
    const size_t end = std::min(observer.keys.size(), begin + kBatchRows);
    const int64_t t0 = NowNanos();
    for (size_t i = begin; i < end; ++i) {
      replay.RowSpilled(observer.keys[i]);
      while (next_end < observer.run_ends.size() &&
             observer.run_ends[next_end] == i + 1) {
        replay.RunFinished();
        ++next_end;
      }
    }
    const int64_t t1 = NowNanos();
    spilled_ns += t1 - t0;
    spans->Add(trace, "histogram.row_spilled", root, t0, t1);
  }
  spans->End(root);

  AnalyticModelConfig model;
  model.input_rows = w.rows;
  model.k = w.k;
  model.memory_rows = std::max<uint64_t>(memory_rows, 1);
  model.buckets_per_run = options.histogram_buckets_per_run;
  model.histogram_memory_limit_bytes = options.histogram_memory_limit_bytes;
  (*out)["histogram.probe_ns"] = PerRow(probe_ns, rows);
  (*out)["histogram.row_spilled_ns"] =
      PerRow(spilled_ns, observer.keys.size());
  (*out)["model_rows_spilled"] =
      static_cast<double>(RunAnalyticModel(model).total_rows_spilled);
}

/// sort: unfiltered replacement selection with the workload's memory and
/// run limit (traditional's run generation), the planner's run reduction,
/// and the final k-row merge.
void SortLayer(const Workload& w, uint64_t seed, const std::string& dir,
               SpanLog* spans, LayerResults* out) {
  const std::string trace = w.name + "/sort";
  const int64_t root = spans->Begin(trace, "layer.sort");
  StorageEnv env(EnvOptions(w));
  const TopKOptions options = BaseOptions(w, &env, dir);
  Result<std::unique_ptr<SpillManager>> spill =
      SpillManager::Create(&env, dir, options.io_pipeline());
  CheckOk(spill.status(), "SpillManager::Create");
  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = w.memory_bytes;
  gen_options.run_row_limit = w.k;
  RowComparator comparator;
  ReplacementSelectionRunGenerator rs(spill->get(), comparator, gen_options);

  RowGenerator gen(MakeSpec(w, seed));
  std::vector<Row> batch(kBatchRows);
  int64_t rs_ns = 0;
  uint64_t rows = 0;
  for (;;) {
    const size_t count = FillBatch(&gen, &batch);
    if (count == 0) break;
    rows += count;
    const int64_t t0 = NowNanos();
    for (size_t i = 0; i < count; ++i) {
      CheckOk(rs.Add(std::move(batch[i])), "RS Add");
    }
    const int64_t t1 = NowNanos();
    rs_ns += t1 - t0;
    spans->Add(trace, "sort.rs_add", root, t0, t1);
  }
  const int64_t f0 = NowNanos();
  CheckOk(rs.Flush(), "RS Flush");
  const int64_t f1 = NowNanos();
  rs_ns += f1 - f0;
  spans->Add(trace, "sort.rs_flush", root, f0, f1);
  const uint64_t runs = (*spill)->run_count();

  const uint64_t compares_before = CounterValue("sort.compare.count");
  const uint64_t ovc_before = CounterValue("sort.compare.ovc_hits");
  MergePlannerOptions planner;
  planner.fan_in = options.merge_fan_in;
  planner.policy = MergePolicy::kSmallestRunsFirst;
  MergePlanStats plan_stats;
  const int64_t r0 = NowNanos();
  Result<std::vector<RunMeta>> final_runs =
      ReduceRunsForFinalMerge(spill->get(), comparator, planner, &plan_stats);
  const int64_t r1 = NowNanos();
  CheckOk(final_runs.status(), "ReduceRunsForFinalMerge");
  spans->Add(trace, "sort.reduce_runs", root, r0, r1);

  MergeOptions merge_options;
  merge_options.limit = w.k;
  uint64_t merged = 0;
  const int64_t m0 = NowNanos();
  Result<MergeStats> merge_stats =
      MergeRuns(spill->get(), *final_runs, comparator, merge_options,
                [&](Row&&) {
                  ++merged;
                  return Status::OK();
                });
  const int64_t m1 = NowNanos();
  CheckOk(merge_stats.status(), "MergeRuns");
  spans->Add(trace, "sort.merge", root, m0, m1);
  spans->End(root);
  if (merged != std::min(w.k, w.rows)) Die("sort layer: short merge");

  const uint64_t merge_rows_read =
      plan_stats.intermediate_rows_read + merge_stats->rows_read;
  (*out)["sort.rs_ns_per_row"] = PerRow(rs_ns, rows);
  (*out)["sort.merge_ns_per_row"] = PerRow(m1 - m0, merge_stats->rows_read);
  (*out)["sort.full_compares_per_row"] = PerRow(
      CounterValue("sort.compare.count") - compares_before, merge_rows_read);
  (*out)["sort.ovc_hits_per_row"] = PerRow(
      CounterValue("sort.compare.ovc_hits") - ovc_before, merge_rows_read);
  (*out)["sort.reduce_runs_s"] = (r1 - r0) * 1e-9;
  (*out)["sort.runs"] = static_cast<double>(runs);
}

/// io: sorted runs of the workload's first rows written through RunWriter
/// (synchronous, then with a background pool) and read back via RunReader.
void IoLayer(const Workload& w, uint64_t seed, const std::string& dir,
             SpanLog* spans, LayerResults* out) {
  const std::string trace = w.name + "/io";
  const int64_t root = spans->Begin(trace, "layer.io");
  StorageEnv env(EnvOptions(w));
  CheckOk(env.CreateDirs(dir), "CreateDirs");
  const uint64_t total = std::min(w.rows, kIoLayerMaxRows);
  const uint64_t run_rows = std::min(total, kIoLayerRunRows);
  RowComparator comparator;
  ThreadPool pool(2);
  int64_t sync_ns = 0, bg_ns = 0, read_ns = 0;
  uint64_t bytes = 0;
  std::vector<std::string> paths;
  RowGenerator gen(MakeSpec(w, seed));
  std::vector<Row> rows;
  Row row;
  for (uint64_t done = 0; done < total; done += run_rows) {
    rows.clear();
    while (rows.size() < std::min(run_rows, total - done) && gen.Next(&row)) {
      rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(), comparator);
    for (ThreadPool* io_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string path =
          dir + "/io-" + std::to_string(paths.size()) + ".tkr";
      const int64_t t0 = NowNanos();
      Result<std::unique_ptr<RunWriter>> writer = RunWriter::Create(
          &env, path, paths.size(), comparator, kDefaultBlockBytes,
          kDefaultIndexStride, io_pool);
      CheckOk(writer.status(), "RunWriter::Create");
      for (const Row& r : rows) CheckOk((*writer)->Append(r), "Append");
      Result<RunMeta> meta = (*writer)->Finish();
      CheckOk(meta.status(), "RunWriter::Finish");
      const int64_t t1 = NowNanos();
      if (io_pool == nullptr) {
        sync_ns += t1 - t0;
        bytes += meta->bytes;
        spans->Add(trace, "io.write_sync", root, t0, t1);
      } else {
        bg_ns += t1 - t0;
        spans->Add(trace, "io.write_bg", root, t0, t1);
      }
      paths.push_back(path);
    }
  }
  for (size_t i = 0; i < paths.size(); i += 2) {
    const int64_t t0 = NowNanos();
    Result<std::unique_ptr<RunReader>> reader =
        RunReader::Open(&env, paths[i]);
    CheckOk(reader.status(), "RunReader::Open");
    bool eof = false;
    for (;;) {
      CheckOk((*reader)->Next(&row, &eof), "RunReader::Next");
      if (eof) break;
    }
    const int64_t t1 = NowNanos();
    read_ns += t1 - t0;
    spans->Add(trace, "io.read", root, t0, t1);
  }
  spans->End(root);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  (*out)["io.write_mb_s"] = MbPerS(bytes, sync_ns);
  (*out)["io.write_fg_mb_s"] = MbPerS(bytes, bg_ns);
  (*out)["io.read_mb_s"] = MbPerS(bytes, read_ns);
}

int RunLayers(const Workload& w, uint64_t seed, const std::string& dir,
              const std::string& span_path) {
  SpanLog spans;
  LayerResults results;
  GenRowLayers(w, seed, &spans, &results);
  HistogramLayer(w, seed, dir + "/histogram", &spans, &results);
  SortLayer(w, seed, dir + "/sort", &spans, &results);
  IoLayer(w, seed, dir + "/io", &spans, &results);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  SyncFs(std::filesystem::path(dir).parent_path().string());
  spans.Append(span_path);
  JsonOut out;
  for (const auto& [name, value] : results) out.Num(name, value);
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Die("usage: topk_perfbench reference|query|layers --flag value ...");
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      Die(std::string("bad flag ") + argv[i]);
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  const auto flag = [&](const std::string& name, const std::string& fallback) {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  };
  const Workload w =
      GetWorkload(flag("workload", ""), std::stod(flag("scale", "1")));
  const uint64_t seed = std::stoull(flag("seed", "42"));
  if (mode == "reference") return RunReference(w, seed);
  if (mode == "query") {
    QueryArgs args;
    args.op = flag("op", "");
    args.dir = flag("dir", "");
    args.spans = flag("spans", "");
    args.obs = flag("obs", "0") == "1";
    args.corrupt = flag("corrupt", "0") == "1";
    if (args.dir.empty()) Die("query needs --dir");
    return RunQuery(w, seed, args);
  }
  if (mode == "layers") {
    const std::string dir = flag("dir", "");
    if (dir.empty()) Die("layers needs --dir");
    return RunLayers(w, seed, dir, flag("spans", ""));
  }
  Die("unknown mode '" + mode + "'");
}
