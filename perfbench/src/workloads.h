// The four perfbench workloads, each one closed-loop round with a single
// client: set up, measure, check outputs, tear down.
//
//  - sort_d1 / sort_d4: ExternalSorter of 128-byte records through a
//    standalone ExecutionContext (governor and arbiter wired, IoEngine on
//    the worker pool) over one FileBlockDevice, or over an
//    IndependentDiskDevice of four FileBlockDevice children with the forecast
//    merge on. One round = one Sort() call.
//  - btree_lookup: uniformly random BPlusTree::Get over a bulk-loaded
//    tree much larger than its BufferPool; ~10% of the keys are absent.
//  - btree_commit: transactions of random Inserts and Gets on a tree that
//    fits its pool, each closed by BufferPool::FlushAll() and
//    DurableBlockDevice::Commit() on WAL-enabled storage.
//
// An untraced round runs the library exactly as a user would. A traced
// round wraps every FileBlockDevice in a TracingBlockDevice and fills the
// per-layer metrics; its logical IoStats must equal the untraced round's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "io/io_stats.h"

namespace perfbench {

/// Input sizes. The defaults are the benchmark's; tests shrink them, and
/// FitFileLimit shrinks them under a file-size limit.
struct Sizes {
  // sort_d1 / sort_d4: N = 16 M, so 16 runs and one merge pass. At D = 1
  // the one disk file holds input, runs and output: about 3 N.
  uint64_t sort_records = (128ull << 20) / sizeof(WideRec);
  size_t sort_memory = 8u << 20;
  size_t sort_block = 64u << 10;
  size_t sort_depth = 8;
  // btree_lookup: 4 Mi keys (~90 MiB of 4 KiB nodes) over 8 MiB of frames.
  uint64_t lookup_keys = 4ull << 20;
  size_t lookup_frames = 2048;
  size_t lookup_warmup = 20000;
  // btree_commit: a fixed key space whose tree (~2.5 MiB) fits the pool.
  uint64_t commit_keys = 96ull << 10;
  size_t commit_frames = 1024;
  size_t inserts_per_txn = 64;
  size_t gets_per_txn = 16;
  // Every this many transactions the loop checkpoints, untimed. That cuts
  // the log, which grows by about 256 KiB of page images per transaction.
  uint64_t commit_checkpoint_every = 256;
  size_t tree_block = 4096;
};

/// Shrink `z` until no file a round writes is predicted to pass `limit`
/// bytes (the process's RLIMIT_FSIZE): the sorts halve N and M together
/// (then B, so still 16 runs and one pass), the lookup tree halves its
/// keys and frames, the commit loop checkpoints more often. False when
/// the smallest sizes still do not fit.
bool FitFileLimit(uint64_t limit, Sizes* z);

struct RoundSpec {
  std::string dir;  ///< scratch directory (must exist)
  uint64_t seed = 1;
  bool traced = false;
  double measure_s = 1.0;  ///< btree: time budget of the measured loop
  uint64_t max_ops = 0;    ///< btree: > 0 runs exactly this many operations
  uint64_t probe_ops = 0;  ///< btree: IoStats identity probe after this many
  LatencyWindows* windows = nullptr;  ///< receives each op's latency
  Roofline roofline;         ///< traced sorts: ceilings for roofline_pct
  Sizes sizes;
};

struct RoundResult {
  std::string error;  ///< empty when every output checked correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  double measure_s = 0;  ///< wall time of the measured phase
  uint64_t ops = 0;      ///< operations in the measured phase
  uint64_t work_items = 0;  ///< sort: records sorted
  std::vector<double> latency_us;  ///< sort: the Sort() call
  /// Logical IoStats at the identity probe: the workload's device first,
  /// then its children (sort_d4) or its data file and log (btree_commit).
  std::vector<vem::IoStats> probe;
  /// Per-layer metrics; filled by traced rounds only.
  std::map<std::string, double> layer;
  bool direct_io = false;
  std::string backend = "none";
};

RoundResult RunSortRound(const RoundSpec& spec, size_t disks);
RoundResult RunLookupRound(const RoundSpec& spec);
RoundResult RunCommitRound(const RoundSpec& spec);

/// Every per-layer metric a traced run reports, with its unit, in output
/// order. Metrics that do not apply to a workload read 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

}  // namespace perfbench
