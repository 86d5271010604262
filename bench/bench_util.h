// Shared helpers for the wall-clock benches and perfbench: markdown table
// printing, JSON reports, the Sort(N) bound formula, and the one paired-run
// gate of the gated benches (PairedRun, GateRow, GateVerdict).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace vem::bench {

/// A 128-byte key+payload record — the DB-page-row shape the wall-clock
/// benches sort when they want the workload I/O-bound rather than
/// compare-bound (little CPU per byte moved).
struct WideRec {
  uint64_t key;
  char payload[120];
  bool operator<(const WideRec& o) const { return key < o.key; }
};

/// True when `flag` (e.g. "--json") appears in argv.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Machine-readable benchmark output: collects (scenario, metric, value)
/// measurements and renders them as one JSON document, so perf runs can
/// be diffed across commits. Benches keep their human-readable tables on
/// stdout and add `--json` to also print the JSON form.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : name_(std::move(bench_name)) {}

  void Add(const std::string& scenario, const std::string& metric,
           double value) {
    rows_.push_back(Row{scenario, metric, value});
  }

  std::string Render() const {
    std::string out = "{\n  \"bench\": \"" + name_ + "\",\n  \"results\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      char val[64];
      std::snprintf(val, sizeof(val), "%.6g", rows_[i].value);
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"scenario\": \"" + rows_[i].scenario +
             "\", \"metric\": \"" + rows_[i].metric + "\", \"value\": " +
             val + "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  /// The shared tail of every bench: writes the document, prints it under
  /// --json, and returns `exit_code`. Under --smoke the file is
  /// BENCH_<name>.smoke.json in the working directory (a CI artifact,
  /// never tracked); otherwise BENCH_<name>.json at the repo root
  /// (VEM_SOURCE_ROOT, injected by CMake; the working directory without
  /// it), so results are tracked in git rather than lost in the build tree.
  int Finish(int argc, char** argv, int exit_code) const {
    const bool smoke = HasFlag(argc, argv, "--smoke");
    const std::string file =
        "BENCH_" + name_ + (smoke ? ".smoke.json" : ".json");
    std::string path = file;
#ifdef VEM_SOURCE_ROOT
    if (!smoke) path = std::string(VEM_SOURCE_ROOT) + "/" + file;
#endif
    const std::string doc = Render();
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!smoke) {
      std::printf(ok ? "\nwrote %s\n" : "\ncould not write %s\n",
                  file.c_str());
    }
    if (HasFlag(argc, argv, "--json")) std::printf("%s", doc.c_str());
    return exit_code;
  }

 private:
  struct Row {
    std::string scenario, metric;
    double value;
  };
  std::string name_;
  std::vector<Row> rows_;
};

/// Minimal fixed-width table printer (markdown-ish, aligned).
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    PrintRow(headers_, width);
    std::string sep;
    for (size_t c = 0; c < headers_.size(); ++c) {
      sep += '|';
      sep.append(width[c] + 2, '-');
    }
    std::printf("%s|\n", sep.c_str());
    for (const auto& r : rows_) PrintRow(r, width);
    std::printf("\n");
  }

 private:
  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& width) {
    std::string line;
    for (size_t c = 0; c < width.size(); ++c) {
      const std::string cell = c < row.size() ? row[c] : "";
      line += "| ";
      line += cell;
      line.append(width[c] - cell.size() + 1, ' ');
    }
    std::printf("%s|\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}
inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

/// ceil(log_base(x)), at least 1 (the "number of passes" convention).
inline double Passes(double x, double base) {
  if (x <= 1.0 || base <= 1.0) return 1.0;
  return std::max(1.0, std::ceil(std::log(x) / std::log(base)));
}

/// Theoretical Sort(N) in block I/Os on one disk: 2*(N/B)*(1 + passes)
/// (run formation + merge passes, reads+writes). perfbench states its
/// sort I/Os against this; tests/io_bounds_test.cc asserts it.
inline double SortBound(double n_items, double items_per_block,
                        double mem_items) {
  double blocks = std::max(1.0, n_items / items_per_block);
  double runs = std::max(1.0, n_items / mem_items);
  double fan_in = std::max(2.0, mem_items / items_per_block - 1);
  return 2.0 * blocks * (1.0 + Passes(runs, fan_in));
}

/// Seconds between two std::chrono readings; a template, so this header
/// (perfbench includes it too) need not include <chrono>.
template <typename TimePoint>
double Secs(TimePoint a, TimePoint b) {
  using Period = typename TimePoint::period;
  return double((b - a).count()) * Period::num / Period::den;
}

/// `a` over `b`, with `b` clamped away from zero: every paired ratio the
/// benches report (sync over armed seconds, fixed over arbitrated p99).
inline double Ratio(double a, double b) { return a / std::max(b, 1e-9); }

// ------------------------------------------------------- paired-run gate
// The PDM charges I/Os, never time, so each gated bench asserts one split:
// a row's columns A and B (sync vs armed, fixed vs arbitrated) charge
// identical IoStats, and A over B stays at or above kGateFloor. The bench
// supplies a measure step returning one pair P, A then B back to back (a
// machine-phase slowdown then inflates both sides of the ratio instead of
// corrupting it). P provides `bool identical() const` and
// `std::pair<double, double> timed() const` (A's and B's timed quantity).

inline constexpr double kGateFloor = 0.95;

struct Gate {
  int repeats = 3;       // pairs per PairedRun
  int retries = 0;       // fresh PairedRuns for a clean row below the floor
  double min_timed = 0;  // a row whose slower side is under this passes
};

template <typename P>
struct GatedRow {
  P pair{};                    // best-ratio pair, or the mismatching one
  bool identical = true;       // pair.identical()
  double ratio = -1;           // A over B on `pair`
  bool fast_enough = true;     // set by GateRow
  std::vector<double> ratios;  // every pair's ratio, retries included
};

/// Runs `repeats` measure steps and keeps the best-ratio pair: a real
/// regression holds every repeat under the bar, a scheduler hiccup does
/// not. The first pair that is not identical ends the run and is kept,
/// so no cleaner repeat can hide a cost-model violation.
template <typename Measure>
auto PairedRun(int repeats, Measure measure) {
  GatedRow<std::invoke_result_t<Measure&>> row;
  for (int r = 0; r < repeats && row.identical; ++r) {
    auto pair = measure();
    const auto [a, b] = pair.timed();
    row.ratios.push_back(Ratio(a, b));
    if (!pair.identical() || row.ratios.back() > row.ratio) {
      row.identical = pair.identical();
      row.ratio = row.ratios.back();
      row.pair = std::move(pair);
    }
  }
  return row;
}

/// PairedRun plus the smoke retry rule: a clean row that fails the floor
/// gets up to `gate.retries` fresh PairedRuns and keeps the best clean
/// one. A mismatch is never retried away: a mismatching retry replaces
/// the row and fails it. A row whose slower side is under
/// `gate.min_timed` passes on identity alone (its ratio measures the OS).
template <typename Measure>
auto GateRow(const Gate& gate, Measure measure) {
  auto passes = [&](const auto& row) {
    const auto [a, b] = row.pair.timed();
    return row.ratio >= kGateFloor || std::max(a, b) < gate.min_timed;
  };
  auto row = PairedRun(gate.repeats, measure);
  for (int i = 0; i < gate.retries && row.identical && !passes(row); ++i) {
    auto retry = PairedRun(gate.repeats, measure);
    std::vector<double> ratios = std::move(row.ratios);
    ratios.insert(ratios.end(), retry.ratios.begin(), retry.ratios.end());
    if (!retry.identical || retry.ratio > row.ratio) row = std::move(retry);
    row.ratios = std::move(ratios);
  }
  row.fast_enough = passes(row);
  return row;
}

/// Records a row's `ratio_median` and `ratio_spread` (max - min over
/// every pair it ran): noise data only, no gate reads them.
template <typename P>
void AddRatios(JsonReport* report, const std::string& scenario,
               const GatedRow<P>& row) {
  std::vector<double> r = row.ratios;
  if (r.empty()) return;
  std::sort(r.begin(), r.end());
  const size_t n = r.size();
  report->Add(scenario, "ratio_median", (r[(n - 1) / 2] + r[n / 2]) / 2);
  report->Add(scenario, "ratio_spread", r.back() - r.front());
}

/// The exit rule of every gated bench: 1 = a row's columns charged
/// different IoStats; 2 = under --smoke, a row failed its floor after its
/// retries; else 0. Each failure prints one ERROR line.
struct GateVerdict {
  bool identical = true, fast_enough = true;

  template <typename P>
  void Add(const GatedRow<P>& row) {
    identical = identical && row.identical;
    fast_enough = fast_enough && row.fast_enough;
  }

  int ExitCode(bool smoke) const {
    if (!identical) {
      std::printf("ERROR: IoStats differ between columns — cost model "
                  "violated\n");
    }
    if (smoke && !fast_enough) {
      std::printf("ERROR: a gated row fell below %.2fx\n", kGateFloor);
    }
    return !identical ? 1 : smoke && !fast_enough ? 2 : 0;
  }
};

}  // namespace vem::bench
