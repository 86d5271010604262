// IoStats: exact I/O accounting — the PDM cost function made measurable.
//
// Every BlockDevice increments these counters. Benchmarks compare the
// counter values against the survey's theoretical bounds; tests assert
// on them to verify I/O complexity, not just correctness.
#pragma once

#include <cstdint>
#include <string>

namespace vem {

/// Counters for one device. "Parallel" I/Os model one PDM I/O step: for a
/// single disk they equal block I/Os; for a StripedDevice over D disks one
/// logical (striped) transfer of D physical blocks counts as one parallel
/// I/O. This is exactly the "disk striping" accounting in the survey.
struct IoStats {
  uint64_t block_reads = 0;      ///< physical blocks read
  uint64_t block_writes = 0;     ///< physical blocks written
  uint64_t parallel_reads = 0;   ///< PDM read steps (<= block_reads)
  uint64_t parallel_writes = 0;  ///< PDM write steps (<= block_writes)
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  uint64_t block_ios() const { return block_reads + block_writes; }
  uint64_t parallel_ios() const { return parallel_reads + parallel_writes; }

  void Reset() { *this = IoStats{}; }

  /// Exact equality across every counter — the contract asserted by the
  /// async-vs-sync identity tests (prefetching must not change the cost).
  bool operator==(const IoStats&) const = default;

  IoStats operator-(const IoStats& o) const {
    IoStats r;
    r.block_reads = block_reads - o.block_reads;
    r.block_writes = block_writes - o.block_writes;
    r.parallel_reads = parallel_reads - o.parallel_reads;
    r.parallel_writes = parallel_writes - o.parallel_writes;
    r.bytes_read = bytes_read - o.bytes_read;
    r.bytes_written = bytes_written - o.bytes_written;
    return r;
  }

  std::string ToString() const {
    return "reads=" + std::to_string(block_reads) +
           " writes=" + std::to_string(block_writes) +
           " parallel=" + std::to_string(parallel_ios());
  }
};

/// Physical gauge for the redundancy plane (an IndependentDiskDevice
/// armed by SetRedundancy). Strictly SEPARATE from IoStats: the logical
/// planes stay bit-identical healthy vs degraded, and every byte the
/// redundancy machinery moves — parity read-modify-writes,
/// reconstruction waves, rebuild drains — lands here instead. Same
/// philosophy as RetryPolicy's retry gauge.
struct RedundancyStats {
  uint64_t degraded_reads = 0;   ///< blocks served by reconstruction
  uint64_t degraded_writes = 0;  ///< writes landed via parity only
  uint64_t parity_writes = 0;    ///< parity block writes
  uint64_t parity_bytes = 0;     ///< physical redundancy bytes moved
  uint64_t rebuilt_blocks = 0;   ///< blocks drained onto a spare

  bool operator==(const RedundancyStats&) const = default;

  std::string ToString() const {
    return "degraded_reads=" + std::to_string(degraded_reads) +
           " degraded_writes=" + std::to_string(degraded_writes) +
           " parity_writes=" + std::to_string(parity_writes) +
           " parity_bytes=" + std::to_string(parity_bytes) +
           " rebuilt=" + std::to_string(rebuilt_blocks);
  }
};

}  // namespace vem
