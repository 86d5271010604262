// IndependentDiskDevice: D independent disk heads — the full Parallel
// Disk Model, not the striped simplification.
//
// StripedDevice turns D disks into one logical disk of block size D*B:
// every access moves all D heads in lockstep, so the merge fan-in drops
// to M/(D*B) and sorting pays the striping-vs-optimal gap the survey
// quantifies. This device keeps the logical block size at B and lets the
// D heads move INDEPENDENTLY: one PDM parallel I/O step may transfer up
// to D unrelated blocks, one per disk. Closing the sorting gap then
// needs two more ingredients, both provided here and in the layers
// above:
//
//  - randomized cycling placement: logically consecutive blocks land on
//    different disks — each cycle of D consecutive allocations walks a
//    fresh seeded random permutation of the disks (Options::
//    placement_seed), so any D consecutive blocks of a run occupy D
//    distinct disks while long-range placement stays uniform random.
//    That is what lets a forecast-scheduled merge keep every head busy
//    (Vitter–Hutchinson randomized cycling);
//  - batched access: the counted ReadBatch packs its ids greedily, in
//    order, into "waves" of distinct disks and charges ONE parallel
//    step per wave (block_reads still count every block). Read and
//    Write are batches of one, so a sequential one-block-at-a-time
//    consumer charges one step per block, exactly like a single disk —
//    independence only pays when the algorithm actually issues
//    multi-block requests, which is the PDM's rule that the cost model
//    prices algorithmic access patterns. The forecast merge
//    (sort/forecast_merge.h) is the algorithmic side of the read
//    bargain; grouped write-behind (ExtVector::Writer flushing whole
//    K-block groups through WriteBatch / AccountWriteBatch) is the
//    write side. The per-block AccountWriteIds form remains for
//    consumers whose identity anchor is the block-by-block Write loop
//    (the buffer pool's ghost flushes).
//
// One transfer path: Read, Write and their uncounted forms are
// one-element ReadMany/WriteMany calls, so lookup, per-block retry (in
// the child's batch loop), degraded reads and parity upkeep are written
// once.
//
// Engine integration: every per-disk fan-out of more than one block
// (counted batches and the uncounted plane) is submitted as one job per
// disk, tagged with the child device, so the IoEngine's per-disk queues
// and in-flight caps model one transfer per head — a slow disk delays
// only its own queue. A one-block request runs on the caller.
//
// Uncounted plane + deferred accounting: forwarded per child like
// StripedDevice, with id-aware deferral (AccountReadBatch /
// AccountWriteIds) routing each charge to the child that physically
// served the block, so IoStats — parent and children — are bit-identical
// with overlap on or off.
//
// ---------------------------------------------------- redundancy plane
//
// SetParity(group_width) arms single-head fault tolerance:
// logical ids are grouped G-1 at a time (group of id = id / (G-1), G =
// group_width clamped to [2, D], 0 meaning D); each group lazily owns
// one PARITY block = XOR of its members, placed on a head distinct from
// every member (rotation rides the cycling allocator: the parity head
// scans from group % D, and member placement skips heads the group
// already occupies). Writes maintain parity read-modify-write — or
// full-stripe, skipping the old-data reads, when one batch covers every
// live member of a group. At G = 2 a group holds one data block, so its
// parity IS a mirror copy: width 2 is mirroring, and a degraded read
// costs one transfer.
//
// DEGRADED MODE: when a block's home head is quarantined by the engine's
// health monitor, or a transfer on it fails with a permanent Status
// after the retry plane is exhausted (the device then latches the head
// dead and RunWithDiskRetry escalates fail-stop evidence to the
// engine), reads reconstruct the block from its group's parity block and
// surviving members as one uncounted wave. Writes divert only for DEAD
// heads — a quarantined-but-alive head still receives writes so its
// contents stay current if it recovers — landing the content in the
// parity block alone.
//
// ACCOUNTING CONTRACT: logical IoStats (parent and children) stay
// bit-identical healthy vs degraded. Placement with parity armed
// deliberately IGNORES quarantine (unlike the parity-off divert), so
// the allocation sequence — and thus every wave count — cannot depend
// on when a head died; degraded paths charge the home child through
// its Account* plane exactly as the healthy transfer would have. All
// physical redundancy traffic (parity RMW, reconstruction reads,
// rebuild drains) rides RedundancyStats, a gauge as separate from
// IoStats as the retry plane's.
//
// REBUILD: AttachSpare parks hot spares; RebuildDisk(d) drains every
// slot homed on head d — data blocks and parity blocks alike — onto a
// spare, throttled by the engine's depth gauge, then atomically swaps
// the spare in — placement flips back, the engine forgets the dead
// head's health record, and reads are non-degraded again.
// RebuildManager (io/rebuild_manager.h) runs this as a background
// policy loop. Parity supports up to 64 heads (the dead set is one
// atomic word).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "io/block_device.h"
#include "io/memory_block_device.h"
#include "util/random.h"

namespace vem {

/// Logical device of block size B over D independent child disks with
/// randomized cycling placement. Stats on this device count PDM parallel
/// steps under the independent-head rule (waves of distinct disks per
/// counted batch). Child devices are owned.
class IndependentDiskDevice final : public BlockDevice {
 public:
  /// In-memory children (deterministic counting tests/benches).
  /// @param num_disks D >= 1
  /// @param block_size bytes per block (same logical and per-disk)
  /// @param seed placement seed (Options::placement_seed)
  IndependentDiskDevice(size_t num_disks, size_t block_size,
                        uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Independent heads over caller-built child disks (e.g. one
  /// FileBlockDevice per spindle/file). Children must be non-empty,
  /// share one block size, and be fresh (nothing allocated yet).
  /// Violations mark the device invalid and every transfer fails.
  explicit IndependentDiskDevice(
      std::vector<std::unique_ptr<BlockDevice>> disks,
      uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// False when the child-disk preconditions above were violated.
  bool valid() const { return valid_; }

  size_t block_size() const override { return block_size_; }
  /// One-element batches: one block, one step.
  Status Read(uint64_t id, void* buf) override {
    return ReadBatch(&id, &buf, 1);
  }
  Status Write(uint64_t id, const void* buf) override {
    return WriteBatch(&id, &buf, 1);
  }

  /// Counted batches with independent-head accounting: n block
  /// transfers, but parallel steps = the number of waves the greedy
  /// in-order packing needs (a wave ends when a disk would repeat).
  /// Transfers fan out as one child batch per disk — engine-parallel,
  /// disk-tagged jobs when an engine is attached. Both directions
  /// charge waves; per-block consumers keep per-block steps because
  /// they call Read/Write one block at a time (a wave of one).
  Status ReadBatch(const uint64_t* ids, void* const* bufs, size_t n) override;
  Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                    size_t n) override;

  // Uncounted plane (see file comment). Supported when every child
  // supports it; async-capable when every child is, in which case a
  // whole fill may run on an engine worker — the nested per-disk
  // fan-out is safe because IoEngine::Wait work-steals.
  bool SupportsUncounted() const override;
  bool SupportsAsync() const override;
  Status ReadUncounted(uint64_t id, void* buf) override {
    return ReadMany(&id, &buf, 1, /*counted=*/false);
  }
  Status WriteUncounted(uint64_t id, const void* buf) override {
    return WriteMany(&id, &buf, 1, /*counted=*/false);
  }
  Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                            size_t n) override {
    return ReadMany(ids, bufs, n, /*counted=*/false);
  }
  Status WriteBatchUncounted(const uint64_t* ids, const void* const* bufs,
                             size_t n) override {
    return WriteMany(ids, bufs, n, /*counted=*/false);
  }

  /// The inherited id-less AccountReads / AccountWrites charge this
  /// device only (sequential per-block semantics); they cannot know which
  /// child served the block. Every stream/pool path in the repo uses the
  /// id-aware forms below, which route the charge to the owning child as
  /// well: the batch forms charge waves like ReadBatch / WriteBatch,
  /// AccountWriteIds one step per block like the Write loop.
  void AccountReadBatch(const uint64_t* ids, uint64_t blocks) override {
    ChargeIds(/*write=*/false, ids, blocks, /*waves=*/true);
  }
  void AccountWriteIds(const uint64_t* ids, uint64_t blocks) override {
    ChargeIds(/*write=*/true, ids, blocks, /*waves=*/false);
  }
  void AccountWriteBatch(const uint64_t* ids, uint64_t blocks) override {
    ChargeIds(/*write=*/true, ids, blocks, /*waves=*/true);
  }

  /// Forwards the engine to every child (children execute the physical
  /// transfers, so the child is what picks the submission transport) and
  /// labels each child's disk tag with its governor route (disk + 1) so
  /// the engine's per-disk depth gauge answers RouteHeadroom queries.
  void set_io_engine(IoEngine* engine) override;

  /// Forwards the retry policy to every child (per-block retry lives in
  /// the children's batch loops, single-block transfers included) and
  /// keeps it for the spares a rebuild swaps in.
  void set_retry_policy(RetryPolicy* retry) override;

  /// Per-disk lease routing for the PrefetchGovernor: disk index + 1
  /// (route 0 stays the unrouted bucket).
  uint64_t PrefetchRoute(uint64_t block_id) const override;

  /// The owning child's pointer — identical to the tag the device puts
  /// on its own per-disk jobs, so external per-block submissions
  /// (forecast merge) queue behind the same head.
  uint64_t EngineDiskTag(uint64_t block_id) const override;

  /// Durability barrier over every child disk; first failure wins.
  Status Sync() override {
    for (auto& d : disks_) VEM_RETURN_IF_ERROR(d->Sync());
    return Status::OK();
  }

  uint64_t Allocate() override;
  void Free(uint64_t id) override;
  uint64_t num_allocated() const override { return allocated_; }

  size_t num_disks() const { return disks_.size(); }
  /// Which disk holds logical block `id` (placement inspection; also the
  /// forecast merge's head-collision key via PrefetchRoute). disks_.size()
  /// for an unknown id.
  size_t disk_of(uint64_t id) const;
  /// Per-disk accounting (randomized placement spreads load ~evenly).
  const IoStats& disk_stats(size_t d) const { return disks_[d]->stats(); }

  /// PDM parallel steps the greedy in-order wave packing charges for a
  /// counted batch of these blocks (exposed for tests and the forecast
  /// merge's cost reasoning).
  uint64_t CountWaves(const uint64_t* ids, size_t n) const;

  // ------------------------------------------------- redundancy plane
  /// Arm RAID-5-style rotated parity groups of width G = `group_width`
  /// (0 = D), clamped to [2, D]: G-1 data blocks + 1 parity block, all
  /// on distinct heads, surviving any single-head failure (see file
  /// comment); G = 2 mirrors every block. Small writes pay a physical
  /// read-modify-write on the parity block, charged to the redundancy
  /// gauge only. Must be called before the first Allocate, with 2 to 64
  /// heads; otherwise it is ignored and parity stays off — a
  /// permanently failed head then loses its blocks.
  void SetParity(size_t group_width = 0);
  /// Parity group width G in force (0 when parity is off).
  size_t parity_group_width() const {
    return RedundancyArmed() ? group_data_ + 1 : 0;
  }

  /// Physical redundancy gauge (never part of IoStats).
  RedundancyStats redundancy_stats() const;

  /// Head `d` latched dead: a transfer on it failed permanently (after
  /// retry exhaustion) or MarkDiskDead was called. Dead heads receive
  /// no transfers — reads reconstruct, writes land in the redundancy
  /// plane — until a rebuild swaps in a spare.
  bool DiskDead(size_t d) const {
    return d < 64 && ((dead_mask_.load(std::memory_order_acquire) >> d) & 1);
  }
  /// Latch head `d` dead (tests and external fault handlers; the device
  /// latches automatically on its own permanent failures).
  void MarkDiskDead(size_t d);
  /// Degraded-read trigger: dead, or currently quarantined by the
  /// attached engine's health monitor.
  bool DiskDegraded(size_t d) const;

  /// Engine disk tag of head `d` (its child device pointer) — the key
  /// for IoEngine::DiskHealth and friends.
  uint64_t DiskTag(size_t d) const {
    return reinterpret_cast<uintptr_t>(disks_[d].get());
  }

  /// Park a hot spare for RebuildDisk. Must be fresh and share the
  /// block size; the device takes ownership.
  Status AttachSpare(std::unique_ptr<BlockDevice> spare);
  size_t spares_available() const;

  /// Drain head `d` onto an attached spare and swap it in: every slot
  /// homed on `d` — a live data block, read as it stands or
  /// reconstructed when `d` is dead, or a group's parity block,
  /// recomputed from the group's written members — is copied in
  /// batches of `batch_blocks` uncounted transfers, throttled by the
  /// engine's depth gauge so demand traffic keeps priority. Slots
  /// written or freed while the drain runs are re-copied in the final
  /// (quiesced) pass, then placement flips to the spare, the dead latch
  /// clears, and the engine forgets the old head's health record.
  /// `cancel` is polled between batches (RebuildManager passes "head
  /// recovered"); a cancelled rebuild returns Status::Busy and re-parks
  /// the spare.
  /// Requires redundancy armed; the drain itself rides the redundancy
  /// gauge (rebuilt_blocks / parity_bytes), never IoStats.
  Status RebuildDisk(size_t d, const std::function<bool()>& cancel = nullptr,
                     size_t batch_blocks = 8);

 private:
  struct Loc {
    uint32_t disk;
    uint64_t child_id;
  };
  /// One parity group's parity block (guarded by loc_mu_; content ops
  /// additionally serialize on parity_mu_).
  struct ParityLoc {
    uint32_t disk;
    uint64_t child_id;
    uint32_t live = 0;  // allocated members; group dissolves at 0
  };
  /// Everything a reconstruction needs, copied out of the placement map
  /// so the physical reads run lock-free (see BuildReconPlan).
  struct ReconPlan {
    bool written = false;         // target ever written? (else Corruption)
    bool parity_written = false;  // group parity ever landed?
    Loc target{};                 // home of the block being reconstructed
    std::vector<Loc> peers;       // parity block + written live members
  };

  /// One transfer request grouped by disk, and one disk's share of it
  /// (defined in the .cc).
  struct Request;
  struct DiskBatch;

  /// The one precondition check of every transfer: a valid device and
  /// known ids. Groups the request by disk from one placement snapshot,
  /// taking each batch's head under the same lock.
  Status Locate(const uint64_t* ids, void* const* bufs, Request* r) const;
  /// True when a rebuild swap replaced `head` at disk `d`.
  bool HeadSwapped(size_t d, const BlockDevice* head) const;

  /// The per-disk dispatch of a grouped request: each batch not marked
  /// skip on the counted or uncounted plane — in disk order on the
  /// caller without an engine or for a single block, else as disk-tagged
  /// engine jobs that own copies of their batch, so a job the watchdog
  /// abandons never touches a dead frame. Leaves each Status in its batch
  /// (Timeout for an abandoned job). With redundancy armed, a disk that
  /// failed with IOError (and was not swapped out meanwhile) is latched
  /// dead and, when counted, its child charge topped up to the healthy
  /// batch's; the caller serves its blocks from the redundancy plane.
  void RunPerDisk(Request* r, bool write, bool counted);

  /// Every transfer: group by disk, dispatch, return the first error.
  /// With redundancy armed, reads reconstruct degraded heads' blocks in
  /// the caller thread (and those of a head that dies mid-batch) and
  /// re-read, once more, the blocks of a head a rebuild swapped out
  /// under them; writes maintain parity read-modify-write (or
  /// full-stripe) under parity_mu_, and a dead head's content lands in
  /// the parity block alone.
  Status ReadMany(const uint64_t* ids, void* const* bufs, size_t n,
                  bool counted);
  Status WriteMany(const uint64_t* ids, const void* const* bufs, size_t n,
                   bool counted);

  /// Charge this device `blocks` transfers in `steps` parallel steps.
  void ChargeParent(bool write, uint64_t blocks, uint64_t steps);
  /// Deferred id-aware charge: each block on its home child, the parent
  /// one step per wave (`waves`) or per block.
  void ChargeIds(bool write, const uint64_t* ids, uint64_t blocks,
                 bool waves);

  /// Placement lookup under the shared lock; false for unknown ids.
  bool Lookup(uint64_t id, Loc* out) const;

  /// Next disk from the cycling permutation (loc_mu_ held exclusively);
  /// reshuffles and refreshes the quarantine snapshot at cycle ends.
  uint32_t NextCycleDisk();
  /// Member/parity disks group `g` already occupies (loc_mu_ held).
  uint64_t GroupDiskMaskLocked(uint64_t g) const;

  /// Append the placement of every written live member of group `g`
  /// except `skip` (loc_mu_ held).
  void AppendWrittenMembersLocked(uint64_t g, uint64_t skip,
                                  std::vector<Loc>* out) const;
  /// Copy every fact a reconstruction of `id` needs (loc_locked = the
  /// caller already holds loc_mu_). False when `id` is unknown.
  bool BuildReconPlan(uint64_t id, bool loc_locked, ReconPlan* out) const;
  /// `out` = XOR of the blocks at `locs` (zeros when empty). Physical
  /// reads are uncounted, retried and ride the gauge; a block on a dead
  /// head is a double failure. loc_mu_ must NOT be held.
  Status XorBlocks(const std::vector<Loc>& locs, void* out);
  /// Run a plan: XOR the parity block and written peers into `out`.
  /// parity_mu_ must be held; loc_mu_ must NOT be needed.
  Status ExecuteReconPlan(const ReconPlan& plan, void* out);
  /// Read the plan's target block as it stands: directly while its head
  /// answers (the read rides the gauge), by reconstruction when the head
  /// is dead or dies on this read (parity_mu_ held, loc_mu_ not held).
  Status ReadCurrentLocked(const ReconPlan& plan, void* out);
  /// Fold `delta` into group `g`'s parity block (parity_mu_ held).
  /// `absolute` overwrites instead of XORing (full-stripe). Skipped
  /// silently when the parity head is dead (single-failure model: the
  /// rebuild recomputes parity from members).
  Status ApplyParityLocked(uint64_t g, const char* delta, bool absolute);

  /// Serve one degraded read: reconstruct under parity_mu_, then
  /// (`charge` only) charge home child `disk`'s deferred plane — the
  /// exact charge its healthy transfer would have recorded.
  Status DegradedReadBlock(uint64_t id, uint32_t disk, void* buf, bool charge);

  bool RedundancyArmed() const { return group_data_ != 0; }

  size_t block_size_;
  std::vector<std::unique_ptr<BlockDevice>> disks_;
  // Placement map. Uncounted transfers may run on engine workers while
  // the owning thread allocates (growing loc_ can reallocate), so every
  // reader takes the shared lock and Allocate/Free the exclusive one.
  // Lookups copy out and release before any I/O — the lock never covers
  // a transfer.
  mutable std::shared_mutex loc_mu_;
  std::vector<Loc> loc_;                 // logical id -> placement
  std::vector<uint64_t> free_list_;      // reusable logical ids
  uint64_t allocated_ = 0;
  Rng rng_;                              // placement randomness (seeded)
  std::vector<uint32_t> cycle_;          // current disk permutation
  size_t cycle_pos_ = 0;                 // next slot in cycle_
  // Quarantine snapshot for parity-off placement diversion, refreshed once
  // per placement cycle (satellite of the flapping-head race: one cycle
  // must see ONE consistent quarantine view, not a per-allocation one).
  // Bit d = head d quarantined at the last cycle boundary.
  uint64_t cycle_quarantine_mask_ = 0;
  // Atomic because uncounted transfers may inspect it from engine
  // workers while the owning thread allocates (which can clear it).
  std::atomic<bool> valid_{true};

  // ------------------------------------------------- redundancy state
  size_t group_data_ = 0;  // data blocks per parity group = G - 1; 0 = off
  // Guarded by loc_mu_ like loc_: parity placement and the per-id
  // written/freed flags, kept beside loc_ in both modes (single-byte
  // slots are mutated under the SHARED lock — distinct ids never race,
  // and growth happens only under the exclusive lock).
  std::unordered_map<uint64_t, ParityLoc> parity_;  // group -> parity
  std::vector<uint8_t> written_;                    // id -> payload landed
  std::vector<uint8_t> freed_;                      // id -> on free_list_
  // Serializes every parity CONTENT operation (RMW, full-stripe,
  // reconstruction, free-time XOR-out, rebuild batches) so concurrent
  // writers cannot interleave a read-modify-write. Ordering: parity_mu_
  // is taken BEFORE loc_mu_; no code path takes them the other way
  // around while holding parity_mu_.
  mutable std::mutex parity_mu_;
  std::unordered_set<uint64_t> parity_written_;  // groups with real parity
  // Heads latched dead (bit per disk index, up to 64 heads).
  std::atomic<uint64_t> dead_mask_{0};
  // Rebuild coordination (guarded by parity_mu_): while a drain of
  // rebuilding_disk_ runs, write and free paths log the slots they touch
  // so the final pass re-copies exactly the slots that went stale. A
  // slot is a data block (DataSlot) or a group's parity block
  // (ParitySlot).
  static uint64_t DataSlot(uint64_t id) { return id << 1; }
  static uint64_t ParitySlot(uint64_t g) { return (g << 1) | 1; }
  int rebuilding_disk_ = -1;
  std::unordered_set<uint64_t> rebuild_dirty_;
  // Hot spares (guarded by loc_mu_) and swapped-out heads. Retired
  // heads stay alive for the device's lifetime: engine queues and
  // health records key on the child pointer, and a freed pointer could
  // be recycled into a colliding tag.
  std::vector<std::unique_ptr<BlockDevice>> spares_;
  std::vector<std::unique_ptr<BlockDevice>> retired_;
  // The physical gauge (atomics: degraded reads run on engine workers).
  std::atomic<uint64_t> g_degraded_reads_{0};
  std::atomic<uint64_t> g_degraded_writes_{0};
  std::atomic<uint64_t> g_parity_writes_{0};
  std::atomic<uint64_t> g_parity_bytes_{0};
  std::atomic<uint64_t> g_rebuilt_blocks_{0};
};

}  // namespace vem
