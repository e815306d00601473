#!/usr/bin/env python3
"""Repository benchmark: top-k query throughput and spill volume.

Run from the repository root:

    python3 perfbench/run.py --workload uniform_k100k --seed 42 \
        --seconds 35 --trace 0

--workload all runs every workload untraced and traced and prints a table
of every metric with its unit.

The first run builds topk_perfbench from src/ into $CARGO_TARGET_DIR (or
.bench_build). Each run then

  * sets up several times (work directories plus the reference answer, an
    in-memory partial sort of the generated rows) and reports the median;
  * with --trace 0, runs the five operators in a fixed cyclic order, one
    query per fresh process and spill directory, until --seconds are used,
    and reports the end-to-end metrics (medians over the repetitions, times
    scaled to a reference host speed, see scaled_op_s);
  * with --trace 1, runs one untraced round, one traced round, one profiled
    histogram query and the per-layer replay, and reports the per-layer
    metrics.

Every query's result digest is checked against the reference, and the work
counters of the single-threaded operators must repeat exactly. The last line
of stdout is one JSON object; the exit code is 0 only if every check passed.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "meta.json")) as _f:
    META = json.load(_f)
# Workload and metric names and units come from BENCHMARK.json, beside the
# perfbench directory at the repository root.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
OPS = ["heap", "histogram", "optimized", "traditional", "parallel"]
SPILLING_OPS = ["histogram", "optimized", "traditional", "parallel"]
# Operators whose work counters are deterministic for a seed; parallel's
# depend on thread interleaving and are reported with their spread instead.
EXACT_OPS = ["heap", "histogram", "optimized", "traditional"]
EXACT_COUNTERS = ["rows_spilled", "runs_created", "merge_rows_written",
                  "merge_rows_read", "io_bytes_written", "io_bytes_read",
                  "io_write_calls", "io_read_calls"]
# The fixed query order of a measured run, repeated until --seconds are
# used. One cycle runs every operator at least twice, so that even the
# slowest operator's median has two samples, and heap and parallel, the
# cheapest and noisiest (single queries vary by +-20% on a shared host),
# three times.
SCHEDULE = ["heap", "histogram", "parallel", "optimized", "heap", "parallel",
            "traditional", "histogram", "parallel", "heap", "optimized",
            "traditional"]
SETUP_REPS = 3
# Host-speed normalisation. The shared 4-core Xeon this benchmark was tuned
# on drifts by 15-25% over minutes (other tenants' cache and memory use),
# moving every operator together. Each benchmark process runs a
# benchmark-owned probe (HostProbeMs in perfbench.cc) before and after its
# work, while no operator thread is alive, and reports the mean time of the
# two; the times a process measured are scaled to a host whose probe takes
# PROBE_REF_MS, the probe's median on that Xeon.
PROBE_REF_MS = 70.0
QUERY_TIMEOUT_S = 120
# Spill counters of the topk layer; heap never spills, so it reports only
# its memory.
SPILL_COUNTERS = ["rows_spilled", "runs_created", "merge_rows_written",
                  "merge_rows_read"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def host_scaled(seconds, record):
    """`seconds` measured in a topk_perfbench process, scaled to the
    reference host speed by the probe speed that process reported."""
    return seconds * PROBE_REF_MS / record["probe_ms"]


def scaled_op_s(rec):
    """A query's operator time scaled to the reference host speed.

    With injected storage latency (disagg_5ms) only the CPU share of the
    operator time is scaled: the CPU time of the thread that calls Consume
    and Finish, inside those calls, at most the operator time. The rest is
    time that thread waits, mostly for the fixed per-call latency, which
    does not change with host speed. (Process CPU time would overstate the
    share for parallel, whose workers' CPU time overlaps its latency.)
    """
    if rec["storage_latency_s"] == 0:
        return host_scaled(rec["op_s"], rec)
    cpu = min(rec["op_cpu_s"], rec["op_s"])
    return host_scaled(cpu, rec) + rec["op_s"] - cpu


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def build_binary(root):
    """Configures (once) and builds topk_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError("no src/CMakeLists.txt under %s: run from the "
                         "repository root" % root)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    build = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(build_dir, "topk_perfbench")


def fingerprint(root, binary):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    cache = os.path.join(os.path.dirname(binary), "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    revision = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            revision = out.stdout.strip()
    return {"cores": os.cpu_count(), "cpu": cpu, "build_type": build_type,
            "git_revision": revision}


class Bench:
    def __init__(self, args, root, binary):
        self.args = args
        self.binary = binary
        self.state_dir = os.path.join(root, ".bench_work")
        self.work = os.path.join(self.state_dir,
                                 "%s-%d" % (args.workload, os.getpid()))
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.probes = []  # the probe time of every process of this run

    def common_flags(self):
        return ["--workload", self.args.workload, "--seed",
                str(self.args.seed), "--scale", repr(self.args.scale)]

    def call_binary(self, mode, extra):
        cmd = [self.binary, mode] + self.common_flags() + extra
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=QUERY_TIMEOUT_S)
        if out.stderr:
            sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else {}
        except ValueError:
            record = {"error": "unreadable output: " + lines[-1]}
        if "probe_ms" in record:
            self.probes.append(record["probe_ms"])
        return out.returncode, record

    def setup_once(self, index):
        """Fresh work directories plus the reference answer."""
        start = time.monotonic()
        if os.path.isdir(self.work):
            shutil.rmtree(self.work)
        os.makedirs(os.path.join(self.work, "spill"))
        code, ref = self.call_binary("reference", [])
        elapsed = time.monotonic() - start
        if code != 0 or "digest" not in ref:
            raise BenchError("reference answer failed (setup %d)" % index)
        return host_scaled(elapsed, ref), ref.pop("digest"), ref["rows"]

    def setup(self):
        """Sets up SETUP_REPS times; returns the median host-scaled time."""
        times = []
        for i in range(SETUP_REPS):
            elapsed, digest, rows = self.setup_once(i)
            times.append(elapsed)
            ref = {"digest": digest, "rows": rows}
            if self.reference is not None and ref != self.reference:
                raise BenchError("reference answer differs between set-ups")
            self.reference = ref
        return statistics.median(times)

    def query(self, op, spans=None, obs=False):
        """Runs one query in its own process and checks its answer."""
        self.attempted += 1
        spill = os.path.join(self.work, "spill",
                             "%s-%d" % (op, self.attempted))
        extra = ["--op", op, "--dir", spill]
        if spans:
            extra += ["--spans", spans]
        if obs:
            extra += ["--obs", "1"]
        if self.args.corrupt_op == op:
            extra += ["--corrupt", "1"]
        try:
            code, rec = self.call_binary("query", extra)
        except subprocess.TimeoutExpired as e:
            code, rec = -1, {"error": str(e)}
        shutil.rmtree(spill, ignore_errors=True)
        if "op_s" in rec:
            log("query %s: operator %.3f s, cpu %.3f s, probe %.1f ms"
                % (op, rec["op_s"], rec["op_cpu_s"], rec["probe_ms"]))
        rec["op"] = op
        rec["ok"] = (code == 0 and "error" not in rec
                     and rec.get("digest") == self.reference["digest"]
                     and rec.get("result_rows") == self.reference["rows"])
        if not rec["ok"]:
            self.failed += 1
            self.problems.append("%s: %s" % (op, rec.get(
                "error", "result digest differs from the reference")))
        return rec

    def round(self, **kwargs):
        return {op: self.query(op, **kwargs) for op in OPS}

    def check_counters(self, records):
        """Exact work-counter gate across repetitions, and across earlier
        runs of the same build, workload, seed and scale."""
        counters_dir = os.path.join(self.state_dir, "counters")
        os.makedirs(counters_dir, exist_ok=True)
        with open(self.binary, "rb") as f:
            build = hashlib.sha1(f.read()).hexdigest()[:12]
        path = os.path.join(counters_dir, "%s-seed%d-scale%s-%s.json" % (
            self.args.workload, self.args.seed, self.args.scale, build))
        seen = {}
        for rec in records:
            if rec["op"] not in EXACT_OPS or not rec["ok"]:
                continue
            counts = {c: rec[c] for c in EXACT_COUNTERS}
            if rec["op"] in seen and seen[rec["op"]] != counts:
                self.problems.append("%s work counters drifted between "
                                     "repetitions: %s vs %s"
                                     % (rec["op"], seen[rec["op"]], counts))
            seen.setdefault(rec["op"], counts)
        if os.path.isfile(path):
            with open(path) as f:
                earlier = json.load(f)
            for op, counts in seen.items():
                if op in earlier and earlier[op] != counts:
                    self.problems.append("%s work counters drifted from an "
                                         "earlier run: %s vs %s"
                                         % (op, earlier[op], counts))
        else:
            with open(path, "w") as f:
                json.dump(seen, f, indent=1, sort_keys=True)
        spilled = [r["rows_spilled"] for r in records
                   if r["op"] == "parallel" and r["ok"]]
        if spilled:
            log("parallel rows_spilled over %d queries: min %d median %d "
                "max %d" % (len(spilled), min(spilled),
                            statistics.median(spilled), max(spilled)))

    def measure(self):
        """Queries in the fixed SCHEDULE order, cycling, until --seconds.

        The first cycle always completes; after it, the run stops before
        the first query whose last duration would overrun --seconds.
        """
        records = []
        last_wall = {}
        start = time.monotonic()
        for i in itertools.count():
            op = SCHEDULE[i % len(SCHEDULE)]
            used = time.monotonic() - start
            if i >= len(SCHEDULE) and used + last_wall[op] > self.args.seconds:
                break
            records.append(self.query(op))
            last_wall[op] = time.monotonic() - start - used
        return records

    def end_to_end(self, records, setup_s):
        metrics = {}
        for op in OPS:
            done = [r for r in records if r["op"] == op and r["ok"]]
            times = [scaled_op_s(r) for r in done]
            log("%s: %d queries; operator seconds, wall: %s; host-scaled: %s"
                % (op, len(done), " ".join("%.3f" % r["op_s"] for r in done),
                   " ".join("%.3f" % t for t in times)))
            metrics[f"{op}.rows_per_s"] = (
                done[0]["rows_in"] / statistics.median(times) if done else 0.0)
            if op in SPILLING_OPS:
                amps = [r["io_bytes_written"] / r["input_bytes"] for r in done]
                metrics[f"{op}.write_amp"] = (statistics.median(amps)
                                              if amps else 0.0)
        rss = [r["peak_rss_kib"] for r in records if r["ok"]]
        metrics["peak_rss_mib"] = max(rss) / 1024.0 if rss else 0.0
        metrics["setup_s"] = setup_s
        metrics["ok_query_ratio"] = 1.0 - self.failed / self.attempted
        return metrics

    def per_layer(self, untraced, traced, profiled, layers):
        m = {"gen.ns_per_row": layers["gen.ns_per_row"]}
        for op in EXACT_OPS:
            q = traced[op]
            m[f"topk.{op}.consume_ns_per_row"] = (
                q["consume_s"] * 1e9 / q["rows_in"])
            m[f"topk.{op}.finish_s"] = q["finish_s"]
            for c in SPILL_COUNTERS + ["peak_memory_bytes"]:
                m[f"topk.{op}.{c}"] = q[c]
        hist = traced["histogram"]
        m["histogram.probe_ns"] = layers["histogram.probe_ns"]
        m["histogram.row_spilled_ns"] = layers["histogram.row_spilled_ns"]
        m["histogram.eliminated_input_ratio"] = (
            hist["rows_eliminated_input"] / hist["rows_consumed"])
        m["histogram.buckets_inserted"] = hist["buckets_inserted"]
        m["histogram.consolidations"] = hist["consolidations"]
        m["histogram.spill_vs_model"] = (
            hist["rows_spilled"] / max(layers["model_rows_spilled"], 1.0))
        for name in ["row.normalize_ns_per_row", "row.serialize_ns_per_row",
                     "row.deserialize_ns_per_row", "common.crc32c_mb_s",
                     "sort.rs_ns_per_row", "sort.merge_ns_per_row",
                     "sort.full_compares_per_row", "sort.ovc_hits_per_row",
                     "sort.reduce_runs_s", "sort.runs", "io.write_mb_s",
                     "io.write_fg_mb_s", "io.read_mb_s"]:
            m[name] = layers[name]
        for op in SPILLING_OPS:
            q = traced[op]
            m[f"io.{op}.write_calls"] = q["io_write_calls"]
            m[f"io.{op}.read_calls"] = q["io_read_calls"]
            m[f"io.{op}.bytes_read"] = q["io_bytes_read"]
            m[f"io.{op}.write_busy_s"] = q["io_write_busy_s"]
            m[f"io.{op}.read_busy_s"] = q["io_read_busy_s"]
        blocks = sum(traced[op]["prefetch_blocks"] for op in SPILLING_OPS)
        unconsumed = sum(traced[op]["prefetch_unconsumed"]
                         for op in SPILLING_OPS)
        m["io.prefetch_unconsumed_ratio"] = (unconsumed / blocks
                                             if blocks else 0.0)
        par = traced["parallel"]
        m["parallel.consume_ns_per_row"] = (
            par["consume_s"] * 1e9 / par["rows_in"])
        m["parallel.finish_s"] = par["finish_s"]
        m["parallel.spill_ratio_vs_histogram"] = (
            par["rows_spilled"] / max(hist["rows_spilled"], 1))
        m["parallel.speedup_vs_histogram"] = (
            scaled_op_s(untraced["histogram"])
            / scaled_op_s(untraced["parallel"]))
        m["obs.profile_overhead_pct"] = 100.0 * (
            scaled_op_s(profiled)
            / scaled_op_s(untraced["histogram"]) - 1.0)
        m["bench.trace_overhead_pct"] = 100.0 * (
            sum(scaled_op_s(traced[op]) for op in OPS)
            / sum(scaled_op_s(untraced[op]) for op in OPS) - 1.0)
        for op in OPS:
            m[f"{op}.wall_rows_per_s"] = (
                untraced[op]["rows_in"] / untraced[op]["op_s"])
        m["bench.host_probe_ms"] = statistics.median(self.probes)
        return m

    def traced_pass(self):
        spans_dir = os.path.join(self.state_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (
            self.args.workload, self.args.seed))
        if os.path.exists(spans):
            os.remove(spans)
        untraced = self.round()
        traced = self.round(spans=spans)
        profiled = self.query("histogram", obs=True)
        code, layers = self.call_binary(
            "layers", ["--dir", os.path.join(self.work, "layers"),
                       "--spans", spans])
        if code != 0:
            raise BenchError("per-layer replay failed")
        log("spans written to %s" % spans)
        records = list(untraced.values()) + list(traced.values()) + [profiled]
        metrics = (self.per_layer(untraced, traced, profiled, layers)
                   if all(r["ok"] for r in records) else {})
        return records, metrics

    def run(self):
        setup_s = self.setup()
        if self.args.trace:
            records, metrics = self.traced_pass()
            units = PER_LAYER_UNITS
        else:
            records = self.measure()
            metrics = self.end_to_end(records, setup_s)
            units = END_TO_END_UNITS
        self.check_counters(records)
        missing = sorted(set(units) - set(metrics))
        if missing and not self.failed:
            self.problems.append("metrics not computed: " + ", ".join(missing))
        shutil.rmtree(self.work, ignore_errors=True)
        correct = not self.problems
        for problem in self.problems:
            log("FAILED: " + problem)
        log("%d queries, %d failed" % (self.attempted, self.failed))
        return correct, {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics.get(name, 0.0),
                               "unit": unit}
                        for name, unit in units.items()},
        }


def main():
    # A SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the topk_perfbench process it is waiting on before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=META["default_seed"])
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink rows, k and memory (self-test)")
    parser.add_argument("--corrupt-op", choices=OPS,
                        help="corrupt this operator's results (self-test)")
    args = parser.parse_args()
    root = os.getcwd()
    try:
        binary = build_binary(root)
        log("fingerprint: " + json.dumps(fingerprint(root, binary)))
        if args.workload != "all":
            correct, result = Bench(args, root, binary).run()
            print(json.dumps(result))
            return 0 if correct else 1
        # Every workload, untraced then traced: a table of every metric,
        # then the same as one JSON object keyed "<workload>/<metric>".
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                one = argparse.Namespace(**vars(args))
                one.workload, one.trace = workload, trace
                correct, result = Bench(one, root, binary).run()
                total["correct"] = total["correct"] and correct
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    print("%-14s %-40s %16.6g %s" % (
                        workload, name, m["value"], m["unit"]))
                    total["metrics"][workload + "/" + name] = m
        print(json.dumps(total))
        return 0 if total["correct"] else 1
    except (BenchError, subprocess.TimeoutExpired) as e:
        log("perfbench: " + str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
