// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload <sort_d1|sort_d4|btree_lookup|btree_commit>
//             --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//
// The run is a sequence of rounds (see workloads.h), each with its own
// set-up, for about --seconds seconds. With --trace 0 every round is
// untraced and the end-to-end metrics are reported; with --trace 1
// untraced and traced rounds alternate and the per-layer metrics are
// reported, with the tracing overhead between the two. Every round
// checks its outputs, and every round's logical IoStats probe must equal
// the first round's (same seed, same inputs, traced or not).
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit code 0 when
// every output checked correct, 1 when any did not, 2 on bad arguments,
// 3 when the file-size limit is too small for the smallest sizes.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

enum class Workload { kSortD1, kSortD4, kLookup, kCommit };

struct Args {
  Workload workload = Workload::kSortD1;
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->name = v;
      have_workload = true;
      if (v == "sort_d1") a->workload = Workload::kSortD1;
      else if (v == "sort_d4") a->workload = Workload::kSortD4;
      else if (v == "btree_lookup") a->workload = Workload::kLookup;
      else if (v == "btree_commit") a->workload = Workload::kCommit;
      else return false;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return have_workload && !a->dir.empty() && a->seconds > 0;
}

/// End-to-end metrics, in output order; names and units match
/// BENCHMARK.json. For the sorts one operation is one Sort() call.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},      {"op_p50_us", "us"},
    {"op_p90_us", "us"},    {"peak_rss_mib", "MiB"},
};

RoundResult RunRound(Workload w, const RoundSpec& spec) {
  switch (w) {
    case Workload::kSortD1: return RunSortRound(spec, 1);
    case Workload::kSortD4: return RunSortRound(spec, 4);
    case Workload::kLookup: return RunLookupRound(spec);
    case Workload::kCommit: return RunCommitRound(spec);
  }
  return {};
}

/// Every Sort() time of `rounds`, in microseconds.
std::vector<double> SortTimes(const std::vector<RoundResult>& rounds) {
  std::vector<double> all;
  for (const auto& r : rounds) {
    all.insert(all.end(), r.latency_us.begin(), r.latency_us.end());
  }
  return all;
}

void PrintMetric(const std::string& name, double v, const std::string& unit,
                 const std::string& samples) {
  std::printf("metric %-26s %14.6g %-12s (%s)\n", name.c_str(), v,
              unit.c_str(), samples.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sort_d1|sort_d4|btree_lookup|"
                 "btree_commit> --seed <n> --seconds <s> --trace <0|1> "
                 "--dir <scratch dir>\n");
    return 2;
  }
  mkdir(args.dir.c_str(), 0755);
  const bool is_sort =
      args.workload == Workload::kSortD1 || args.workload == Workload::kSortD4;
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // Under a file-size limit (RLIMIT_FSIZE) a write past it would kill the
  // process with SIGXFSZ. Shrink the sizes to fit instead, and let any
  // write that still passes it fail with EFBIG, which the round reports.
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit fsize{};
  const uint64_t file_limit =
      getrlimit(RLIMIT_FSIZE, &fsize) == 0 && fsize.rlim_cur != RLIM_INFINITY
          ? static_cast<uint64_t>(fsize.rlim_cur)
          : UINT64_MAX;
  RoundSpec spec;
  spec.dir = args.dir;
  spec.seed = args.seed;
  if (!FitFileLimit(file_limit, &spec.sizes)) {
    std::fprintf(stderr, "perfbench: file-size limit of %llu bytes is too small\n",
                 static_cast<unsigned long long>(file_limit));
    return 3;
  }
  const Sizes& z = spec.sizes;
  std::printf(
      "sizes {\"file_limit\": %s, \"sort_mib\": %llu, \"sort_memory_kib\": "
      "%zu, \"sort_block_kib\": %zu, \"lookup_keys\": %llu, "
      "\"lookup_frames\": %zu, \"commit_checkpoint_every\": %llu}\n",
      file_limit == UINT64_MAX ? "null" : std::to_string(file_limit).c_str(),
      static_cast<unsigned long long>(z.sort_records * sizeof(WideRec) >> 20),
      z.sort_memory >> 10, z.sort_block >> 10,
      static_cast<unsigned long long>(z.lookup_keys), z.lookup_frames,
      static_cast<unsigned long long>(z.commit_checkpoint_every));
  // The commit probe comes before the first checkpoint, which recreates
  // the untraced round's log device (and so restarts its IoStats).
  spec.probe_ops = args.workload == Workload::kLookup ? 20000
                   : args.workload == Workload::kCommit
                       ? std::min<uint64_t>(200, z.commit_checkpoint_every - 1)
                       : 0;
  Roofline roof;
  const size_t roof_block = is_sort ? z.sort_block : z.tree_block;
  if (args.trace) {
    const uint64_t bytes = std::min<uint64_t>(
        is_sort ? (256ull << 20) : (32ull << 20), file_limit / 2);
    if (!MeasureRoofline(args.dir, roof_block, bytes, 2000, args.seed, &roof)) {
      std::printf("roofline unavailable: no O_DIRECT file in %s\n",
                  args.dir.c_str());
    }
    std::printf(
        "roofline {\"block\": %zu, \"seq_read_mb_s\": %.1f, "
        "\"seq_write_mb_s\": %.1f, \"rand_read_us\": %.2f}\n",
        roof_block, roof.seq_read_mb_s, roof.seq_write_mb_s, roof.rand_read_us);
    spec.roofline = roof;
  }

  // Sorts repeat whole Sort() calls until the time is spent (at least
  // three, or one untraced and one traced); the tree workloads split the
  // time evenly over a fixed number of rounds. Tree latencies go to
  // windows of w_ops operations that run on across rounds; each window
  // gives a rate, p50 and p90, and the run reports the median over its
  // windows, so a stall of a shared machine moves one window, not the run.
  // The sorts' p90 comes from windows of 10 Sort() calls the same way.
  const size_t w_ops = is_sort                                 ? 10
                       : args.workload == Workload::kLookup ? 20000
                                                            : 1000;
  LatencyWindows untraced_w(w_ops), traced_w(w_ops);
  std::vector<RoundResult> untraced, traced;
  std::string error;
  const size_t tree_rounds = args.trace ? 2 : 4;
  spec.measure_s = args.seconds / static_cast<double>(tree_rounds);
  SettleFs(args.dir);
  const double t_start = NowS();
  for (size_t r = 0;; ++r) {
    if (is_sort) {
      const size_t min_rounds = args.trace ? 2 : 3;
      if (r >= min_rounds && (NowS() - t_start >= args.seconds || r >= 60)) {
        break;
      }
    } else if (r >= tree_rounds) {
      break;
    }
    spec.traced = args.trace && r % 2 == 1;
    spec.windows = spec.traced ? &traced_w : &untraced_w;
    RoundResult res = RunRound(args.workload, spec);
    SettleFs(args.dir);  // the round's deleted files, before the next one
    std::printf("round %zu %-8s setup_s=%.4f measure_s=%.4f ops=%llu%s%s\n",
                r + 1, spec.traced ? "traced" : "untraced", res.setup_s,
                res.measure_s, static_cast<unsigned long long>(res.ops),
                res.error.empty() ? "" : " ERROR: ", res.error.c_str());
    std::fflush(stdout);
    const bool failed = !res.error.empty();
    if (failed && error.empty()) error = res.error;
    (spec.traced ? traced : untraced).push_back(std::move(res));
    if (failed) break;
  }
  untraced_w.Finish();
  traced_w.Finish();

  // Logical IoStats identity: every probe equals the first one.
  const std::vector<vem::IoStats>* ref = nullptr;
  for (const auto* group : {&untraced, &traced}) {
    for (const auto& r : *group) {
      if (r.probe.empty()) continue;
      if (ref == nullptr) {
        ref = &r.probe;
      } else if (r.probe != *ref && error.empty()) {
        error = "logical IoStats differ between rounds";
      }
    }
  }
  if (ref != nullptr) {
    std::printf("iostats probe %s (%s)\n", (*ref)[0].ToString().c_str(),
                error.empty() ? "identical in every round" : error.c_str());
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto* group : {&untraced, &traced}) {
    for (const auto& r : *group) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  const RoundResult& first = untraced.front();
  std::printf("machine %s\n", MachineJson(args.dir).c_str());
  std::printf("engine {\"direct_io_active\": %s, \"io_backend\": \"%s\"}\n",
              first.direct_io ? "true" : "false", first.backend.c_str());

  // End-to-end metrics, from the untraced rounds. Sorts: one sample per
  // Sort() call, and ops_per_s counts records per Sort() second.
  std::map<std::string, double> e2e;
  std::vector<double> setups, sort_rates;
  const std::vector<double> sorts = SortTimes(untraced);
  for (const auto& r : untraced) {
    setups.push_back(r.setup_s);
    if (is_sort && r.measure_s > 0) {
      sort_rates.push_back(static_cast<double>(r.work_items) / r.measure_s);
    }
  }
  e2e["setup_s"] = Median(setups);
  e2e["ops_per_s"] = is_sort ? Median(sort_rates) : Median(untraced_w.rates);
  e2e["op_p50_us"] = is_sort ? Percentile(sorts, 0.50) : Median(untraced_w.p50);
  e2e["op_p90_us"] = Median(untraced_w.p90);
  e2e["peak_rss_mib"] = PeakRssMib();

  const std::string n_ops =
      is_sort ? "n=" + std::to_string(sorts.size()) + " sorts"
              : "median of " + std::to_string(untraced_w.p50.size()) +
                    " windows of " + std::to_string(w_ops) + " ops";
  PrintMetric("setup_s", e2e["setup_s"], "s",
              "n=" + std::to_string(untraced.size()) + " rounds");
  PrintMetric("ops_per_s", e2e["ops_per_s"], "1/s", n_ops);
  PrintMetric("op_p50_us", e2e["op_p50_us"], "us", n_ops);
  PrintMetric("op_p90_us", e2e["op_p90_us"], "us", n_ops);
  PrintMetric("peak_rss_mib", e2e["peak_rss_mib"], "MiB", "1 process");
  switch (args.workload) {
    case Workload::kSortD1:
    case Workload::kSortD4:
      PrintMetric("sort_mb_per_s", e2e["ops_per_s"] * sizeof(WideRec) / 1e6,
                  "MB/s", n_ops);
      break;
    case Workload::kLookup:
      PrintMetric("lookup_p50_us", e2e["op_p50_us"], "us", n_ops);
      PrintMetric("lookup_p99_us", Median(untraced_w.p99), "us", n_ops);
      PrintMetric("lookups_per_s", e2e["ops_per_s"], "1/s", n_ops);
      break;
    case Workload::kCommit:
      PrintMetric("commit_p50_ms", e2e["op_p50_us"] / 1e3, "ms", n_ops);
      PrintMetric("commit_p99_ms", Median(untraced_w.p99) / 1e3, "ms", n_ops);
      PrintMetric("commits_per_s", e2e["ops_per_s"], "1/s", n_ops);
      break;
  }
  PrintMetric("failed_frac",
              attempted == 0 ? 0 : static_cast<double>(failed) / attempted,
              "ratio",
              std::to_string(failed) + " of " + std::to_string(attempted));

  // Per-layer metrics, from the traced rounds (median over rounds).
  std::map<std::string, double> layer;
  if (args.trace) {
    for (const auto& [name, unit] : LayerMetrics()) {
      std::vector<double> v;
      for (const auto& r : traced) {
        auto it = r.layer.find(name);
        if (it != r.layer.end()) v.push_back(it->second);
      }
      layer[name] = Median(v);
    }
    layer["roofline.seq_read_mb_s"] = roof.seq_read_mb_s;
    layer["roofline.seq_write_mb_s"] = roof.seq_write_mb_s;
    layer["roofline.rand_read_us"] = roof.rand_read_us;
    const double base = is_sort ? Median(sorts) : Median(untraced_w.p50);
    const double with =
        is_sort ? Median(SortTimes(traced)) : Median(traced_w.p50);
    layer["trace.overhead_pct"] = base > 0 ? 100.0 * (with / base - 1.0) : 0;
    const std::string n_traced =
        "n=" + std::to_string(traced.size()) + " traced rounds";
    for (const auto& [name, unit] : LayerMetrics()) {
      PrintMetric(name, layer[name], unit, n_traced);
    }
  }

  const bool correct = error.empty() && failed == 0;
  if (!correct) std::printf("WRONG OUTPUT: %s\n", error.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first_metric = true;
  auto emit = [&](const std::string& name, double v, const std::string& unit) {
    json += (first_metric ? "\"" : ", \"") + name + "\": {\"value\": " +
            Num(v) + ", \"unit\": \"" + unit + "\"}";
    first_metric = false;
  };
  if (args.trace) {
    for (const auto& [name, unit] : LayerMetrics()) emit(name, layer[name], unit);
  } else {
    for (const auto& [name, unit] : kEndToEnd) emit(name, e2e[name], unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
