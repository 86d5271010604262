// Shared helpers of the perfbench driver: clocks, summary statistics,
// record shapes and checksums, the O_DIRECT roofline probe and machine
// metadata.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "trace_device.h"

namespace perfbench {

/// Seconds on the monotonic clock.
inline double NowS() { return static_cast<double>(MonoNs()) * 1e-9; }

/// CPU seconds consumed by the calling thread.
double ThreadCpuS();

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) {
  return Percentile(v, 0.5);
}

/// Operation latencies cut into consecutive windows of `ops` operations.
/// Each full window yields its rate (operations per second of operation
/// time), p50 and p90; only one window of samples is held at a time, so
/// the benchmark's own memory does not grow with the operation count.
class LatencyWindows {
 public:
  explicit LatencyWindows(size_t ops) : ops_(ops) { buf_.reserve(ops); }

  void Add(double us) {
    buf_.push_back(us);
    if (buf_.size() == ops_) Close();
  }
  /// Close a partial window when no full one was seen (a short run).
  void Finish() {
    if (rates.empty() && !buf_.empty()) Close();
  }

  std::vector<double> rates, p50, p90, p99;

 private:
  void Close() {
    double sum_us = 0;
    for (double v : buf_) sum_us += v;
    rates.push_back(static_cast<double>(buf_.size()) / (sum_us * 1e-6));
    p50.push_back(Percentile(buf_, 0.50));
    p90.push_back(Percentile(buf_, 0.90));
    p99.push_back(Percentile(buf_, 0.99));
    buf_.clear();
  }

  size_t ops_;
  std::vector<double> buf_;
};

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The sort workloads move the repository benches' 128-byte WideRec.
using vem::bench::WideRec;
inline constexpr int kPayloadWords = sizeof(WideRec::payload) / 8;

/// Record number `i` of the input drawn from `seed`.
inline WideRec MakeRecord(uint64_t seed, uint64_t i) {
  WideRec r;
  r.key = Mix64(seed ^ Mix64(i));
  for (int j = 0; j < kPayloadWords; ++j) {
    const uint64_t w = r.key * (2 * j + 3) + i;
    std::memcpy(r.payload + 8 * j, &w, 8);
  }
  return r;
}

/// Order-independent checksum term of one record (key and payload).
inline uint64_t RecordHash(const WideRec& r) {
  uint64_t h = r.key;
  for (int j = 0; j < kPayloadWords; ++j) {
    uint64_t w;
    std::memcpy(&w, r.payload + 8 * j, 8);
    h = Mix64(h ^ w);
  }
  return h;
}

/// Flush the filesystem holding `dir` (syncfs). Deleting a large file on
/// a filesystem mounted with `discard` stalls the next journal commit for
/// tens of milliseconds; settling after teardown and set-up keeps those
/// stalls out of the timed phases.
void SettleFs(const std::string& dir);

/// Bare O_DIRECT pread/pwrite ceilings of the filesystem under `dir`.
struct Roofline {
  double seq_read_mb_s = 0;
  double seq_write_mb_s = 0;
  double rand_read_us = 0;  ///< mean QD1 4 KiB random-read latency
};

/// Write then read `bytes` sequentially in `block`-byte O_DIRECT calls,
/// then time `rand_reads` QD1 4 KiB reads at random aligned offsets of
/// the same file. The file lives in `dir` and is removed afterwards.
/// Returns false when the file cannot be opened with O_DIRECT.
bool MeasureRoofline(const std::string& dir, size_t block, uint64_t bytes,
                     size_t rand_reads, uint64_t seed, Roofline* out);

/// Machine description: nproc, kernel, filesystem of `dir`, compiler.
std::string MachineJson(const std::string& dir);

/// Shortest decimal form that round-trips `v` (all digits kept).
std::string Num(double v);

}  // namespace perfbench
