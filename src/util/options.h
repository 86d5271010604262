// Options: the Parallel Disk Model parameters (Vitter-Shriver).
//
// The PDM measures everything in items; our substrate measures in bytes and
// lets typed containers derive the per-type B = block_size / sizeof(T).
#pragma once

#include <cstddef>
#include <cstdint>

namespace vem {

/// Submission backend for the IoEngine (see io/io_engine.h).
///  - kWorkerPool: worker threads issue preadv/pwritev per job — the
///    portable default, and the compiled-in fallback everywhere.
///  - kIoUring: the same worker pool executes jobs, but FileBlockDevice
///    transfers route through a per-engine io_uring submission ring (one
///    SQE per coalesced run, batched submission, registered fds/buffers).
///    Falls back to kWorkerPool at runtime when the kernel lacks io_uring
///    or the build has no <linux/io_uring.h>; IoEngine::backend() reports
///    the outcome. Never affects IoStats — the transport moves bytes, the
///    accounting planes are unchanged.
enum class IoBackend { kWorkerPool, kIoUring };

/// Global configuration of the simulated machine.
///
/// Maps onto the PDM parameters:
///  - B (items/block)  = block_size / sizeof(item)
///  - M (items in RAM) = memory_budget / sizeof(item)
///  - D (# disks)      = the child count a StripedDevice or
///    IndependentDiskDevice is built with (see num_disks)
/// The other fields opt into a plane (prefetch, engine, O_DIRECT, WAL,
/// watchdog); everything defaults to the synchronous single-disk path.
/// A component's finer policy (governor budget, arbiter cadence, retry
/// backoff, per-disk job cap, redundancy) lives in its own Config or
/// constructor, not here. README "Knobs" lists each field's evidence.
struct Options {
  /// Bytes per disk block. PDM parameter B (scaled by item size).
  size_t block_size = 4096;

  /// Bytes of internal memory available to an algorithm. PDM parameter M.
  /// Algorithms must not hold more than this much payload at once (metadata
  /// such as per-run block-id lists is exempt, as in STXXL/TPIE).
  size_t memory_budget = 1u << 20;  // 1 MiB

  /// Number of disks, PDM parameter D, for callers that build a
  /// multi-disk device from Options. No library code reads it: the
  /// devices take D as their child count.
  size_t num_disks = 1;

  /// K-block read-ahead / write-behind depth for streaming access. An
  /// algorithm layer reads it once, when it is built from these Options
  /// (or from an ExecutionContext carrying them), and opens every stream
  /// it arms at this depth. 0 (the default) keeps every stream
  /// synchronous. Purely a wall-clock knob: the PDM counters are charged
  /// at consumption time and stay bit-identical to the synchronous path.
  /// Each armed stream stages 2 * prefetch_depth blocks of RAM.
  size_t prefetch_depth = 0;

  /// Worker threads for the background IoEngine (async submit/wait,
  /// parallel striping). A handful suffices — workers block in
  /// pread/pwrite rather than compute.
  size_t io_threads = 2;

  /// Seed for randomized block placement, for callers that build an
  /// IndependentDiskDevice from Options (its constructor takes the seed;
  /// no library code reads this field). Randomized cycling: each cycle
  /// of D consecutive allocations lands on a fresh random permutation of
  /// the disks. Same seed + same allocation sequence = same placement,
  /// so multi-run experiments and stats-identity tests are reproducible.
  uint64_t placement_seed = 0x9E3779B97F4A7C15ull;

  /// Open FileBlockDevice scratch files with O_DIRECT so transfers bypass
  /// the OS page cache (cold-cache mode). On a warm page cache every read
  /// is RAM speed and the engine's compute/transfer overlap is invisible;
  /// direct I/O restores real device latency so benchmarks measure the
  /// engine, not the cache. Falls back to buffered I/O when the
  /// filesystem rejects O_DIRECT or block_size is not 512-byte aligned
  /// (FileBlockDevice::direct_io_active() reports the outcome). Never
  /// affects IoStats either way.
  bool direct_io = false;

  /// fdatasync FileBlockDevice scratch files before closing them, so
  /// timed writes are durably on the medium rather than absorbed by the
  /// drive's volatile write cache (O_DIRECT bypasses the OS page cache
  /// but not the device cache). First step of the durability story;
  /// FileBlockDevice::Sync() exposes the same barrier mid-run.
  bool sync_on_close = false;

  /// Write-ahead logging (src/wal/): opt into the durability plane.
  /// DurableStorage built from these Options wraps the data device in a
  /// DurableBlockDevice journaling every block write and the block-id
  /// allocation map into an append-only, CRC-protected log; Commit() is
  /// the durability point (group-commit fsync) and ARIES-lite recovery
  /// replays committed writes after a crash. Off (the default) the
  /// wrapper is a pure pass-through and IoStats stay bit-identical to a
  /// WAL-free build; on, the logical (data-plane) IoStats are unchanged
  /// and the journal's physical writes are charged to the WAL's own
  /// device at commit.
  bool enable_wal = false;

  /// Hung-I/O watchdog deadline for IoEngine jobs, in milliseconds.
  /// 0 (the default) waits forever — the historical behavior. When set,
  /// IoEngine::Wait gives up on a job that has not completed within the
  /// deadline and returns Status::Timeout instead of blocking forever;
  /// the abandoned job's eventual result is discarded. This is a
  /// liveness backstop, not a retry trigger (see Status::IsTransient).
  uint64_t io_deadline_ms = 0;

  /// Group-commit window in microseconds: a committer that finds no
  /// fsync in flight waits this long before paying one, so concurrent
  /// commits batch under a single log force. 0 (the default) syncs
  /// immediately; concurrent committers still share in-flight fsyncs
  /// (leader/follower), the window only widens the batch.
  uint64_t wal_group_commit_us = 0;

  /// Per-type block capacity: how many T fit in one block.
  template <typename T>
  size_t items_per_block() const {
    return block_size / sizeof(T);
  }

  /// Per-type memory capacity: how many T fit in internal memory.
  template <typename T>
  size_t items_in_memory() const {
    return memory_budget / sizeof(T);
  }
};

}  // namespace vem
