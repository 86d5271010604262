// Shared helpers for the wall-clock benches and perfbench: markdown table
// printing, JSON reports, and the Sort(N) bound formula.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
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
/// stdout and add `--json` to also print/emit the JSON form (see
/// bench_async_io, which writes BENCH_async_io.json).
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

  /// Write the JSON document to the repo root (VEM_SOURCE_ROOT, injected
  /// by CMake) so results are tracked in git rather than lost in the
  /// build tree; falls back to the working directory when built without
  /// the define. Returns false on I/O failure.
  bool WriteRepoFile(const std::string& filename) const {
#ifdef VEM_SOURCE_ROOT
    return WriteFile(std::string(VEM_SOURCE_ROOT) + "/" + filename);
#else
    return WriteFile(filename);
#endif
  }

  /// Write the JSON document to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::string doc = Render();
    size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    return n == doc.size();
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

}  // namespace vem::bench
