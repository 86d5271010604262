#include "io/independent_disk_device.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "io/io_engine.h"

namespace vem {

IndependentDiskDevice::IndependentDiskDevice(size_t num_disks,
                                             size_t block_size, uint64_t seed)
    : block_size_(block_size), rng_(seed) {
  if (num_disks == 0) num_disks = 1;
  disks_.reserve(num_disks);
  for (size_t d = 0; d < num_disks; ++d) {
    disks_.push_back(std::make_unique<MemoryBlockDevice>(block_size));
  }
  cycle_.resize(num_disks);
  for (size_t d = 0; d < num_disks; ++d) cycle_[d] = uint32_t(d);
  cycle_pos_ = cycle_.size();  // first Allocate reshuffles
}

IndependentDiskDevice::IndependentDiskDevice(
    std::vector<std::unique_ptr<BlockDevice>> disks, uint64_t seed)
    : block_size_(0), disks_(std::move(disks)), rng_(seed) {
  block_size_ = disks_.empty() ? 0 : disks_[0]->block_size();
  valid_ = !disks_.empty();
  for (const auto& d : disks_) {
    // Fresh children with one shared block size: the placement map is
    // built by this device's own Allocate calls, so pre-allocated
    // children would hold blocks no logical id can ever address.
    if (d->block_size() != block_size_ || d->num_allocated() != 0) {
      valid_ = false;
    }
  }
  cycle_.resize(disks_.size());
  for (size_t d = 0; d < disks_.size(); ++d) cycle_[d] = uint32_t(d);
  cycle_pos_ = cycle_.size();
}

void IndependentDiskDevice::SetRedundancy(Redundancy mode, size_t group_width) {
  std::unique_lock<std::shared_mutex> lock(loc_mu_);
  // Arming after blocks exist is ignored: placement history cannot be
  // re-grouped. So is arming over more than 64 heads (the dead set is
  // one atomic word) or without a second head to carry the redundancy.
  if (!valid_ || !loc_.empty() || disks_.size() > 64 || disks_.size() < 2) {
    return;
  }
  redundancy_ = mode;
  group_data_ = 0;
  if (RedundancyArmed()) {
    size_t g = group_width == 0 ? disks_.size() : group_width;
    group_data_ = std::clamp(g, size_t{2}, disks_.size()) - 1;
  }
}

RedundancyStats IndependentDiskDevice::redundancy_stats() const {
  RedundancyStats s;
  s.degraded_reads = g_degraded_reads_.load(std::memory_order_relaxed);
  s.degraded_writes = g_degraded_writes_.load(std::memory_order_relaxed);
  s.parity_writes = g_parity_writes_.load(std::memory_order_relaxed);
  s.parity_bytes = g_parity_bytes_.load(std::memory_order_relaxed);
  s.rebuilt_blocks = g_rebuilt_blocks_.load(std::memory_order_relaxed);
  return s;
}

void IndependentDiskDevice::MarkDiskDead(size_t d) {
  if (d >= disks_.size() || d >= 64) return;
  dead_mask_.fetch_or(uint64_t{1} << d, std::memory_order_acq_rel);
  // Mirror the latch into the engine's health plane (idempotent): the
  // head leaves scheduling consideration and stays quarantined until a
  // rebuild swap calls ForgetDisk.
  if (engine_ != nullptr) {
    engine_->ReportDiskFailStop(reinterpret_cast<uintptr_t>(disks_[d].get()));
  }
}

bool IndependentDiskDevice::DiskDegraded(size_t d) const {
  if (DiskDead(d)) return true;
  return engine_ != nullptr &&
         engine_->DiskQuarantined(reinterpret_cast<uintptr_t>(disks_[d].get()));
}

bool IndependentDiskDevice::Lookup(uint64_t id, Loc* out) const {
  std::shared_lock<std::shared_mutex> lock(loc_mu_);
  if (id >= loc_.size()) return false;
  *out = loc_[id];
  return true;
}

size_t IndependentDiskDevice::disk_of(uint64_t id) const {
  Loc l;
  return Lookup(id, &l) ? l.disk : disks_.size();
}

uint32_t IndependentDiskDevice::NextCycleDisk() {
  if (cycle_pos_ >= cycle_.size()) {
    rng_.Shuffle(&cycle_);
    cycle_pos_ = 0;
    // One quarantine view per cycle (kNone diversion only): a head
    // flapping between sick and healthy mid-cycle used to split one
    // cycle's placement decisions across two views — the divert check
    // raced per allocation. Snapshotting at the boundary makes every
    // cycle's placement a function of a single consistent health state.
    // Heads beyond index 63 are never diverted (mask is one word).
    cycle_quarantine_mask_ = 0;
    if (redundancy_ == Redundancy::kNone && engine_ != nullptr &&
        engine_->AnyQuarantined()) {
      for (uint64_t tag : engine_->QuarantinedTagsSnapshot()) {
        for (size_t d = 0; d < disks_.size() && d < 64; ++d) {
          if (reinterpret_cast<uintptr_t>(disks_[d].get()) == tag) {
            cycle_quarantine_mask_ |= uint64_t{1} << d;
          }
        }
      }
    }
  }
  return cycle_[cycle_pos_++];
}

uint64_t IndependentDiskDevice::GroupDiskMaskLocked(uint64_t g) const {
  uint64_t mask = 0;
  const uint64_t lo = g * group_data_;
  const uint64_t hi = lo + group_data_;
  for (uint64_t m = lo; m < hi && m < loc_.size(); ++m) {
    if (!freed_[m]) mask |= uint64_t{1} << loc_[m].disk;
  }
  auto it = parity_.find(g);
  if (it != parity_.end()) mask |= uint64_t{1} << it->second.disk;
  return mask;
}

uint64_t IndependentDiskDevice::Allocate() {
  if (!valid_) return 0;  // transfers on this id fail with InvalidArgument
  // Redundancy-armed allocation also serializes on parity_mu_ (taken
  // before loc_mu_, the global order): the rebuild's final pass holds
  // parity_mu_ to quiesce placement while it swaps a spare in.
  std::unique_lock<std::mutex> plock(parity_mu_, std::defer_lock);
  if (RedundancyArmed()) plock.lock();
  std::unique_lock<std::shared_mutex> lock(loc_mu_);
  // Randomized cycling: consecutive allocations walk a random
  // permutation of the disks, reshuffled every D allocations. Any D
  // consecutive logical blocks therefore hit D distinct disks (a full
  // wave), while long-range placement is uniform random.
  //
  // The logical id is fixed before the disk pick: under parity the id
  // determines the group, and the group constrains the placement.
  const uint64_t id = free_list_.empty() ? loc_.size() : free_list_.back();
  uint32_t disk = NextCycleDisk();
  const size_t D = disks_.size();
  if (redundancy_ == Redundancy::kNone) {
    // Quarantine-aware placement: while the cycle-boundary snapshot has
    // a disk quarantined, new blocks avoid it (its existing blocks stay
    // readable — retry still serves them) by walking further along the
    // cycling permutation, up to one full circuit; with every disk sick
    // the original pick stands. Fault-free runs never enter this
    // branch, so seeded placement — and every stats-identity test built
    // on it — is bit-identical with or without the health plane.
    if (cycle_quarantine_mask_ != 0) {
      size_t tried = 0;
      while (tried < D && disk < 64 &&
             ((cycle_quarantine_mask_ >> disk) & 1)) {
        disk = NextCycleDisk();
        tried++;
      }
    }
  } else {
    // Group-disjoint placement: walk the cycle past heads the group
    // already occupies (live members + its parity block), so a single
    // head failure costs a group at most one block. Redundancy-armed
    // placement deliberately ignores quarantine — the allocation
    // sequence must not depend on when a head got sick (see the
    // accounting contract in the header).
    const uint64_t used = GroupDiskMaskLocked(id / group_data_);
    size_t tried = 0;
    while (tried < 2 * D && ((used >> disk) & 1)) {
      disk = NextCycleDisk();
      tried++;
    }
    // The random walk can keep landing on occupied heads across
    // reshuffles; a free head always exists (group + parity occupy at
    // most G <= D heads and this member's slot is open), so fall back
    // to a deterministic scan rather than colocate two group members —
    // colocation would break single-failure reconstruction.
    while ((used >> disk) & 1) disk = uint32_t((disk + 1) % D);
  }
  const uint64_t child = disks_[disk]->Allocate();
  if (!free_list_.empty()) {
    free_list_.pop_back();
    loc_[id] = Loc{disk, child};
    if (RedundancyArmed()) {
      written_[id] = 0;
      freed_[id] = 0;
    }
  } else {
    loc_.push_back(Loc{disk, child});
    if (RedundancyArmed()) {
      written_.push_back(0);
      freed_.push_back(0);
    }
  }
  if (RedundancyArmed()) {
    const uint64_t g = id / group_data_;
    auto it = parity_.find(g);
    if (it == parity_.end()) {
      // Lazy parity block, rotation riding the allocator: scan from
      // g % D for a head outside the group (only this first member
      // exists yet), so parity load rotates across heads group by
      // group instead of hammering one dedicated parity disk.
      uint32_t pd = uint32_t(g % D);
      while (pd == disk) pd = uint32_t((pd + 1) % D);
      const uint64_t pchild = disks_[pd]->Allocate();
      it = parity_.emplace(g, ParityLoc{pd, pchild, 0}).first;
    }
    it->second.live++;
  }
  allocated_++;
  return id;
}

void IndependentDiskDevice::Free(uint64_t id) {
  if (!valid_) return;
  if (!RedundancyArmed()) {
    std::unique_lock<std::shared_mutex> lock(loc_mu_);
    if (id >= loc_.size()) return;
    disks_[loc_[id].disk]->Free(loc_[id].child_id);
    free_list_.push_back(id);
    allocated_--;
    return;
  }
  // parity_mu_ held for the whole Free: no other mutator (writes, other
  // Frees, Allocate reusing this id, a rebuild swap) can interleave
  // between the content fix-up and the placement update.
  std::lock_guard<std::mutex> plock(parity_mu_);
  const uint64_t g = id / group_data_;
  Loc l{};
  ReconPlan plan;
  bool xor_out = false;
  {
    std::unique_lock<std::shared_mutex> lock(loc_mu_);
    if (id >= loc_.size() || freed_[id]) return;
    l = loc_[id];
    // The last live member skips the XOR-out: its group dissolves below
    // and the parity block goes with it.
    auto it = parity_.find(g);
    xor_out = written_[id] && it != parity_.end() && it->second.live > 1 &&
              BuildReconPlan(id, /*loc_locked=*/true, &plan);
  }
  if (xor_out) {
    // XOR the departing content back out of the group parity so the
    // freed slot contributes zeros again — otherwise every later
    // reconstruction in the group would be poisoned by a ghost block.
    // Best effort: an unreadable AND unreconstructable block (a double
    // failure) leaves the group parity stale; a rebuild recomputes it.
    std::vector<char> old(block_size_);
    if (ReadCurrentLocked(plan, old.data()).ok()) {
      (void)ApplyParityLocked(g, old.data(), /*absolute=*/false);
    }
  }
  std::unique_lock<std::shared_mutex> lock(loc_mu_);
  disks_[l.disk]->Free(l.child_id);
  written_[id] = 0;
  freed_[id] = 1;
  free_list_.push_back(id);
  allocated_--;
  if (rebuilding_disk_ >= 0) rebuild_dirty_.insert(DataSlot(id));
  auto it = parity_.find(g);
  if (it != parity_.end() && --it->second.live == 0) {
    // Last member gone: the group dissolves and its parity block is
    // returned to its head.
    disks_[it->second.disk]->Free(it->second.child_id);
    parity_.erase(it);
    parity_written_.erase(g);
    if (rebuilding_disk_ >= 0) rebuild_dirty_.insert(ParitySlot(g));
  }
}

void IndependentDiskDevice::AppendWrittenMembersLocked(
    uint64_t g, uint64_t skip, std::vector<Loc>* out) const {
  const uint64_t lo = g * group_data_;
  const uint64_t hi = lo + group_data_;
  for (uint64_t m = lo; m < hi && m < loc_.size(); ++m) {
    if (m != skip && !freed_[m] && written_[m]) out->push_back(loc_[m]);
  }
}

bool IndependentDiskDevice::BuildReconPlan(uint64_t id, bool loc_locked,
                                           ReconPlan* out) const {
  auto build = [&]() -> bool {
    if (id >= loc_.size()) return false;
    const uint64_t g = id / group_data_;
    auto it = parity_.find(g);
    if (it == parity_.end()) return false;  // no group: nothing to rebuild
    out->target = loc_[id];
    out->written = written_[id] != 0;
    out->parity_written = parity_written_.count(g) != 0;  // parity_mu_ held
    out->peers.assign(1, Loc{it->second.disk, it->second.child_id});
    AppendWrittenMembersLocked(g, id, &out->peers);
    return true;
  };
  if (loc_locked) return build();
  std::shared_lock<std::shared_mutex> lock(loc_mu_);
  return build();
}

Status IndependentDiskDevice::XorBlocks(const std::vector<Loc>& locs,
                                        void* out) {
  const size_t B = block_size_;
  char* acc = static_cast<char*>(out);
  std::memset(acc, 0, B);
  std::vector<char> tmp(B);
  for (const Loc& l : locs) {
    if (DiskDead(l.disk)) {
      return Status::IOError(
          "IndependentDiskDevice: double failure (surviving group block "
          "on a dead head)");
    }
    // Reads ride the retry shim like any other transfer — a transient
    // fault on a surviving block must not fail a reconstruction the
    // healthy path would have retried through.
    BlockDevice* d = disks_[l.disk].get();
    VEM_RETURN_IF_ERROR(WithRetry(d, l.child_id, [&] {
      return d->ReadUncounted(l.child_id, tmp.data());
    }));
    g_parity_bytes_.fetch_add(B, std::memory_order_relaxed);
    for (size_t j = 0; j < B; ++j) acc[j] ^= tmp[j];
  }
  return Status::OK();
}

Status IndependentDiskDevice::ExecuteReconPlan(const ReconPlan& plan,
                                               void* out) {
  if (!plan.written) {
    // A never-written block reads as Corruption on the healthy path
    // (MemoryBlockDevice contract); degraded mode must agree — and must
    // NOT read G-1 blocks to find that out.
    return Status::Corruption(
        "IndependentDiskDevice: degraded read of never-written block");
  }
  if (!plan.parity_written) {
    // The target was written but its parity never landed: the parity
    // head was already dead when the write went through. Two lost
    // heads' worth of state — outside the single-failure model.
    return Status::IOError(
        "IndependentDiskDevice: double failure (parity lost while the "
        "home head was down)");
  }
  VEM_RETURN_IF_ERROR(XorBlocks(plan.peers, out));
  g_degraded_reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status IndependentDiskDevice::ReadCurrentLocked(const ReconPlan& plan,
                                                void* out) {
  const Loc& t = plan.target;
  if (DiskDead(t.disk)) return ExecuteReconPlan(plan, out);
  Status s = disks_[t.disk]->ReadUncounted(t.child_id, out);
  if (s.ok()) {
    g_parity_bytes_.fetch_add(block_size_, std::memory_order_relaxed);
  } else if (s.IsIOError()) {
    MarkDiskDead(t.disk);
    s = ExecuteReconPlan(plan, out);
  }
  return s;
}

Status IndependentDiskDevice::ApplyParityLocked(uint64_t g, const char* delta,
                                                bool absolute) {
  Loc pl{};
  bool have = false;
  {
    std::shared_lock<std::shared_mutex> lock(loc_mu_);
    auto it = parity_.find(g);
    if (it != parity_.end()) {
      pl = Loc{it->second.disk, it->second.child_id};
      have = true;
    }
  }
  if (!have) {
    return Status::InvalidArgument("IndependentDiskDevice: no parity group");
  }
  if (rebuilding_disk_ >= 0) rebuild_dirty_.insert(ParitySlot(g));
  if (DiskDead(pl.disk)) {
    // Single-failure model: with the parity head itself dead the data
    // writes are the only copy. Skip silently (the gauge shows nothing
    // landed); a rebuild of that head recomputes parity from members.
    return Status::OK();
  }
  const size_t B = block_size_;
  BlockDevice* pd = disks_[pl.disk].get();
  const bool pw = parity_written_.count(g) != 0;
  Status s;
  if (absolute || !pw) {
    // Full-stripe parity (or first content in the group): the delta IS
    // the new parity — no read-modify-write.
    s = pd->WriteUncounted(pl.child_id, delta);
    if (s.ok()) {
      g_parity_writes_.fetch_add(1, std::memory_order_relaxed);
      g_parity_bytes_.fetch_add(B, std::memory_order_relaxed);
    }
  } else {
    std::vector<char> cur(B);
    s = pd->ReadUncounted(pl.child_id, cur.data());
    if (s.ok()) {
      for (size_t j = 0; j < B; ++j) cur[j] ^= delta[j];
      s = pd->WriteUncounted(pl.child_id, cur.data());
    }
    if (s.ok()) {
      g_parity_writes_.fetch_add(1, std::memory_order_relaxed);
      g_parity_bytes_.fetch_add(2 * B, std::memory_order_relaxed);
    }
  }
  if (s.IsIOError()) {
    // The parity head just died; the data write still carries the
    // content (same single-failure stance as the dead-skip above).
    MarkDiskDead(pl.disk);
    return Status::OK();
  }
  VEM_RETURN_IF_ERROR(s);
  parity_written_.insert(g);
  return Status::OK();
}

void IndependentDiskDevice::MarkWrittenShared(const uint64_t* ids, size_t n) {
  // Single-byte slots of distinct ids never race; growth happens only
  // under the exclusive lock, so shared suffices.
  std::shared_lock<std::shared_mutex> lock(loc_mu_);
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] < written_.size()) written_[ids[i]] = 1;
  }
}

Status IndependentDiskDevice::Locate(const uint64_t* ids, size_t n,
                                     Loc* out) const {
  if (!valid_) {
    return Status::InvalidArgument(
        "IndependentDiskDevice children violate preconditions");
  }
  std::shared_lock<std::shared_mutex> lock(loc_mu_);
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= loc_.size()) {
      return Status::InvalidArgument("IndependentDiskDevice: bad block id");
    }
    out[i] = loc_[ids[i]];
  }
  return Status::OK();
}

void IndependentDiskDevice::ChargeParent(bool write, uint64_t blocks,
                                         uint64_t steps) {
  if (write) {
    stats_.block_writes += blocks;
    stats_.parallel_writes += steps;
    stats_.bytes_written += blocks * block_size_;
  } else {
    stats_.block_reads += blocks;
    stats_.parallel_reads += steps;
    stats_.bytes_read += blocks * block_size_;
  }
}

Status IndependentDiskDevice::DegradedReadBlock(uint64_t id, uint32_t disk,
                                                void* buf, bool charge) {
  {
    std::lock_guard<std::mutex> plock(parity_mu_);
    ReconPlan plan;
    if (!BuildReconPlan(id, /*loc_locked=*/false, &plan)) {
      return Status::InvalidArgument("IndependentDiskDevice: bad block id");
    }
    VEM_RETURN_IF_ERROR(ExecuteReconPlan(plan, buf));
  }
  // The home child is charged through its deferred plane exactly what
  // its healthy synchronous read would have recorded, so per-child
  // IoStats stay bit-identical; the reconstruction's physical reads
  // already rode the gauge.
  if (charge) disks_[disk]->AccountReads(1);
  return Status::OK();
}

Status IndependentDiskDevice::ReadOne(uint64_t id, void* buf, bool counted) {
  Loc l{};
  VEM_RETURN_IF_ERROR(Locate(&id, 1, &l));
  Status s;
  if (RedundancyArmed() && DiskDegraded(l.disk)) {
    s = DegradedReadBlock(id, l.disk, buf, counted);
  } else {
    // Per-block retry at the parent: the child's counted single-block
    // Read charges only on success, so whole-op re-execution cannot
    // double-count, and failed attempts feed the child head's health.
    BlockDevice* disk = disks_[l.disk].get();
    s = WithRetry(disk, l.child_id, [&] {
      return counted ? disk->Read(l.child_id, buf)
                     : disk->ReadUncounted(l.child_id, buf);
    });
    if (RedundancyArmed() && !s.ok()) {
      // A rebuild swap may have re-homed the block between the lookup
      // and the transfer; one re-lookup closes that window.
      Loc l2;
      if (Lookup(id, &l2) &&
          (l2.disk != l.disk || l2.child_id != l.child_id)) {
        return ReadOne(id, buf, counted);
      }
      if (s.IsIOError()) {
        // Permanent failure past the retry plane: latch the head dead
        // and serve the block from the group. The failed attempt
        // charged nothing, so the degraded path's deferred charge is
        // the only one.
        MarkDiskDead(l.disk);
        s = DegradedReadBlock(id, l.disk, buf, counted);
      }
    }
  }
  VEM_RETURN_IF_ERROR(s);
  if (counted) ChargeParent(/*write=*/false, 1, 1);  // one head: one step
  return Status::OK();
}

Status IndependentDiskDevice::WriteOne(uint64_t id, const void* buf,
                                       bool counted) {
  if (RedundancyArmed()) {
    VEM_RETURN_IF_ERROR(WriteMany(&id, &buf, 1, counted));
  } else {
    Loc l{};
    VEM_RETURN_IF_ERROR(Locate(&id, 1, &l));
    BlockDevice* disk = disks_[l.disk].get();
    VEM_RETURN_IF_ERROR(WithRetry(disk, l.child_id, [&] {
      return counted ? disk->Write(l.child_id, buf)
                     : disk->WriteUncounted(l.child_id, buf);
    }));
  }
  if (counted) ChargeParent(/*write=*/true, 1, 1);
  return Status::OK();
}

uint64_t IndependentDiskDevice::CountWaves(const uint64_t* ids,
                                           size_t n) const {
  // Greedy in-order packing: a wave accumulates blocks until the next
  // one's disk is already busy in this wave; every wave is one parallel
  // step (each head transfers at most one block). Deterministic in the
  // id order, so counted batches and deferred accounting agree exactly.
  std::shared_lock<std::shared_mutex> lock(loc_mu_);
  uint64_t waves = 0;
  std::vector<uint8_t> used(disks_.size(), 0);
  size_t in_wave = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= loc_.size()) continue;  // unknown id occupies no head
    size_t d = loc_[ids[i]].disk;
    if (used[d]) {  // head busy: this wave is done (D distinct at most)
      waves++;
      std::fill(used.begin(), used.end(), uint8_t{0});
      in_wave = 0;
    }
    used[d] = 1;
    in_wave++;
  }
  if (in_wave > 0) waves++;
  return waves;
}

std::vector<Status> IndependentDiskDevice::RunPerDisk(
    std::shared_ptr<const DiskBatches> batches, bool write, bool counted) {
  const size_t D = disks_.size();
  // Jobs share ownership of `batches` (child ids and buffer pointers): a
  // job the engine watchdog abandons may still run after this returns.
  auto run = [batches, write, counted](BlockDevice* disk, size_t d) {
    const DiskBatch& b = (*batches)[d];
    const size_t nd = b.child_ids.size();
    if (nd == 0) return Status::OK();
    if (write) {
      return counted ? disk->WriteBatch(b.child_ids.data(), b.bufs.data(), nd)
                     : disk->WriteBatchUncounted(b.child_ids.data(),
                                                 b.bufs.data(), nd);
    }
    return counted
               ? disk->ReadBatch(b.child_ids.data(), b.bufs.data(), nd)
               : disk->ReadBatchUncounted(b.child_ids.data(), b.bufs.data(),
                                          nd);
  };
  // Child-stat snapshots turn a mid-batch death into an exact top-up:
  // healthy charge nd minus what landed before the failure. Reading the
  // counters is safe — the failed disk's job has completed.
  auto child_blocks = [&](size_t d) {
    const IoStats& s = disks_[d]->stats();
    return write ? s.block_writes : s.block_reads;
  };
  std::vector<uint64_t> before;
  if (counted && RedundancyArmed()) {
    for (size_t d = 0; d < D; ++d) before.push_back(child_blocks(d));
  }
  std::vector<Status> st(D);
  if (engine_ == nullptr || D < 2) {
    for (size_t d = 0; d < D; ++d) st[d] = run(disks_[d].get(), d);
  } else {
    // One disk-tagged job per non-empty disk: the engine's per-disk
    // queues serialize same-disk traffic (one transfer per head) while
    // distinct disks run concurrently. The child device pointer is the
    // tag — unique per disk across every device sharing the engine.
    std::vector<std::function<Status()>> jobs;
    std::vector<uint64_t> tags;
    std::vector<size_t> job_disk;
    for (size_t d = 0; d < D; ++d) {
      if ((*batches)[d].child_ids.empty()) continue;
      BlockDevice* disk = disks_[d].get();
      jobs.push_back([run, disk, d] { return run(disk, d); });
      tags.push_back(DiskTag(d));
      job_disk.push_back(d);
    }
    // Uncounted jobs are charge-free end to end, so they may also opt
    // into the ENGINE's whole-job retry plane (when one is configured
    // there); counted jobs charge per block inside the child and must
    // rely on the finer-grained retries below them instead. Each disk's
    // status is the engine's own result for its job, so a watchdog
    // Timeout reaches the caller.
    std::vector<Status> job_st;
    (void)engine_->RunBatch(std::move(jobs), tags, /*retryable=*/!counted,
                            &job_st);
    for (size_t k = 0; k < job_disk.size(); ++k) {
      st[job_disk[k]] = std::move(job_st[k]);
    }
  }
  if (RedundancyArmed()) {
    for (size_t d = 0; d < D; ++d) {
      if (!st[d].IsIOError()) continue;
      // The head died mid-batch: latch it and make the child's charge
      // what the healthy batch would have recorded.
      MarkDiskDead(d);
      if (!counted) continue;
      const uint64_t nd = (*batches)[d].child_ids.size();
      const uint64_t landed = child_blocks(d) - before[d];
      if (landed >= nd) continue;
      if (write) {
        disks_[d]->AccountWrites(nd - landed);
      } else {
        disks_[d]->AccountReads(nd - landed);
      }
    }
  }
  return st;
}

Status IndependentDiskDevice::ReadMany(const uint64_t* ids, void* const* bufs,
                                       size_t n, bool counted) {
  if (n == 0) return Status::OK();
  std::vector<Loc> locs(n);
  VEM_RETURN_IF_ERROR(Locate(ids, n, locs.data()));
  // Blocks served by reconstruction: pre-known degraded heads get their
  // home child charged per block (what the healthy batch would have
  // recorded); blocks of a head that dies MID-batch were topped up in
  // bulk by RunPerDisk, so their reconstructions carry no extra charge.
  struct Recon {
    uint64_t id;
    void* buf;
    uint32_t disk;
    bool charge;
  };
  std::vector<Recon> recon;
  uint64_t degraded = 0;  // one view per batch (redundancy: D <= 64)
  if (RedundancyArmed()) {
    for (size_t d = 0; d < disks_.size(); ++d) {
      if (DiskDegraded(d)) degraded |= uint64_t{1} << d;
    }
  }
  auto batches = std::make_shared<DiskBatches>(disks_.size());
  for (size_t i = 0; i < n; ++i) {
    const Loc& l = locs[i];
    if ((degraded >> l.disk) & 1) {
      recon.push_back(Recon{ids[i], bufs[i], l.disk, counted});
    } else {
      (*batches)[l.disk].Add(l.child_id, bufs[i]);
    }
  }
  const std::vector<Status> st = RunPerDisk(batches, /*write=*/false, counted);
  for (size_t d = 0; d < st.size(); ++d) {
    if (st[d].ok()) continue;
    // Only a permanent head failure is served by reconstruction; a
    // watchdog Timeout (the job may still be running) or any other
    // error fails the batch.
    if (!RedundancyArmed() || !st[d].IsIOError()) return st[d];
    // Reconstruct every block the dead head owed this batch (blocks that
    // landed before the death are overwritten with identical content).
    for (size_t i = 0; i < n; ++i) {
      if (locs[i].disk == d) {
        recon.push_back(Recon{ids[i], bufs[i], uint32_t(d), false});
      }
    }
  }
  for (const Recon& r : recon) {
    VEM_RETURN_IF_ERROR(DegradedReadBlock(r.id, r.disk, r.buf, r.charge));
  }
  return Status::OK();
}

Status IndependentDiskDevice::WriteMany(const uint64_t* ids,
                                        const void* const* bufs, size_t n,
                                        bool counted) {
  if (n == 0) return Status::OK();
  const size_t B = block_size_;
  // Whole-batch parity critical section: deltas are computed against
  // pre-batch contents and must land before any other writer interleaves
  // its own read-modify-write. Engine jobs never take parity_mu_ and
  // RunBatch's wait self-steals, so holding it across the fan-out cannot
  // deadlock. NOTE: batches with duplicate ids are unsupported under
  // redundancy (a duplicate would fold a stale old value into the
  // delta); no caller in the repo issues them.
  std::unique_lock<std::mutex> plock(parity_mu_, std::defer_lock);
  if (RedundancyArmed()) plock.lock();
  std::vector<Loc> locs(n);
  VEM_RETURN_IF_ERROR(Locate(ids, n, locs.data()));
  // -------- phase A (parity): per-group deltas against old contents.
  std::unordered_map<uint64_t, std::vector<char>> delta;
  std::unordered_map<uint64_t, uint8_t> full;
  if (RedundancyArmed()) {
    std::unordered_map<uint64_t, std::vector<size_t>> by_group;
    for (size_t i = 0; i < n; ++i) {
      by_group[ids[i] / group_data_].push_back(i);
    }
    std::vector<char> old(B);
    for (auto& [g, idxs] : by_group) {
      uint32_t live = 0;
      {
        std::shared_lock<std::shared_mutex> lock(loc_mu_);
        auto it = parity_.find(g);
        if (it != parity_.end()) live = it->second.live;
      }
      auto& dl = delta[g];
      dl.assign(B, 0);
      const bool full_stripe = idxs.size() >= live;
      full[g] = full_stripe ? 1 : 0;
      if (full_stripe) {
        // The batch covers every live member: parity becomes the XOR of
        // the new contents outright — the classic full-stripe win, no
        // old-data reads at all.
        for (size_t idx : idxs) {
          const char* nb = static_cast<const char*>(bufs[idx]);
          for (size_t j = 0; j < B; ++j) dl[j] ^= nb[j];
        }
        continue;
      }
      // Small write: delta = XOR over (old ^ new) of the touched
      // members. Never-written members contribute zeros without a read.
      for (size_t idx : idxs) {
        std::fill(old.begin(), old.end(), 0);
        ReconPlan plan;
        if (BuildReconPlan(ids[idx], /*loc_locked=*/false, &plan) &&
            plan.written) {
          VEM_RETURN_IF_ERROR(ReadCurrentLocked(plan, old.data()));
        }
        const char* nb = static_cast<const char*>(bufs[idx]);
        for (size_t j = 0; j < B; ++j) dl[j] ^= old[j] ^ nb[j];
      }
    }
  }
  // -------- phase B: data writes fan out to live heads only. A dead
  // head's blocks are carried by the redundancy plane alone, charged
  // through the deferred plane exactly as the healthy write would have
  // been (bit-identical child IoStats).
  auto batches = std::make_shared<DiskBatches>(disks_.size());
  for (size_t i = 0; i < n; ++i) {
    const uint32_t d = locs[i].disk;
    if (RedundancyArmed() && DiskDead(d)) {
      if (counted) disks_[d]->AccountWrites(1);
      g_degraded_writes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      (*batches)[d].Add(locs[i].child_id, const_cast<void*>(bufs[i]));
    }
  }
  const std::vector<Status> st = RunPerDisk(batches, /*write=*/true, counted);
  Status first_err = Status::OK();
  for (size_t d = 0; d < st.size(); ++d) {
    if (st[d].ok()) continue;
    if (RedundancyArmed() && st[d].IsIOError()) {
      // Died mid-batch (latched and charged by RunPerDisk): phase C's
      // parity carries these blocks.
      g_degraded_writes_.fetch_add((*batches)[d].child_ids.size(),
                                   std::memory_order_relaxed);
    } else if (first_err.ok()) {
      first_err = st[d];
    }
  }
  if (!RedundancyArmed()) return first_err;
  // -------- phase C: land the parity — even when a head died mid-batch.
  // Parity reflects the ATTEMPTED contents, which is exactly what
  // reconstruction must return for the blocks that never landed.
  for (auto& [g, dl] : delta) {
    Status s = ApplyParityLocked(g, dl.data(), full[g] != 0);
    if (!s.ok() && first_err.ok()) first_err = s;
  }
  // -------- phase D: flags + rebuild dirty tracking.
  MarkWrittenShared(ids, n);
  if (rebuilding_disk_ >= 0) {
    for (size_t i = 0; i < n; ++i) {
      if (int(locs[i].disk) == rebuilding_disk_) {
        rebuild_dirty_.insert(DataSlot(ids[i]));
      }
    }
  }
  return first_err;
}

Status IndependentDiskDevice::ReadBatch(const uint64_t* ids, void* const* bufs,
                                        size_t n) {
  VEM_RETURN_IF_ERROR(ReadMany(ids, bufs, n, /*counted=*/true));
  ChargeParent(/*write=*/false, n, CountWaves(ids, n));
  return Status::OK();
}

Status IndependentDiskDevice::WriteBatch(const uint64_t* ids,
                                         const void* const* bufs, size_t n) {
  VEM_RETURN_IF_ERROR(WriteMany(ids, bufs, n, /*counted=*/true));
  // Independent-head charging, same rule as ReadBatch: every block
  // counted, one parallel step per wave of distinct disks. Randomized
  // cycling makes any D consecutive allocations a full wave, so grouped
  // write-behind scatters at the same D-way rate forecast reads gather.
  ChargeParent(/*write=*/true, n, CountWaves(ids, n));
  return Status::OK();
}

bool IndependentDiskDevice::SupportsUncounted() const {
  for (const auto& d : disks_) {
    if (!d->SupportsUncounted()) return false;
  }
  return !disks_.empty();
}

bool IndependentDiskDevice::SupportsAsync() const {
  for (const auto& d : disks_) {
    if (!d->SupportsAsync()) return false;
  }
  return !disks_.empty();
}

void IndependentDiskDevice::ChargeIds(bool write, const uint64_t* ids,
                                      uint64_t blocks, bool waves) {
  auto charge_child = [write](BlockDevice* child) {
    if (write) {
      child->AccountWrites(1);
    } else {
      child->AccountReads(1);
    }
  };
  uint64_t steps = blocks;
  if (blocks == 1) {
    // One-block fast path: this is the hottest counting call in the repo
    // (every armed stream charges each consumed block through here), and
    // a single block is trivially one step — skip CountWaves' scratch
    // vector and second lock acquisition.
    Loc l;
    if (Lookup(ids[0], &l)) charge_child(disks_[l.disk].get());
  } else {
    // Mirror the counted batch exactly: every block charged on its
    // child (a child's counted batch charges one transfer per block, so
    // per-child charges match whatever grouping served them), and the
    // parent's steps wave-packed or per block. CountWaves first: nested
    // shared-lock acquisition could deadlock against a pending writer.
    if (waves) steps = CountWaves(ids, blocks);
    std::shared_lock<std::shared_mutex> lock(loc_mu_);
    for (uint64_t i = 0; i < blocks; ++i) {
      if (ids[i] < loc_.size()) charge_child(disks_[loc_[ids[i]].disk].get());
    }
  }
  ChargeParent(write, blocks, steps);
}

Status IndependentDiskDevice::AttachSpare(std::unique_ptr<BlockDevice> spare) {
  if (spare == nullptr || spare->block_size() != block_size_ ||
      spare->num_allocated() != 0) {
    return Status::InvalidArgument(
        "IndependentDiskDevice: spare must be fresh and share the block "
        "size");
  }
  std::unique_lock<std::shared_mutex> lock(loc_mu_);
  spares_.push_back(std::move(spare));
  return Status::OK();
}

size_t IndependentDiskDevice::spares_available() const {
  std::shared_lock<std::shared_mutex> lock(loc_mu_);
  return spares_.size();
}

Status IndependentDiskDevice::RebuildDisk(size_t d,
                                          const std::function<bool()>& cancel,
                                          size_t batch_blocks) {
  if (!valid_ || d >= disks_.size()) {
    return Status::InvalidArgument("IndependentDiskDevice: bad disk index");
  }
  if (!RedundancyArmed()) {
    return Status::NotSupported(
        "IndependentDiskDevice: rebuild requires redundancy");
  }
  if (batch_blocks == 0) batch_blocks = 1;
  const size_t B = block_size_;
  std::unique_ptr<BlockDevice> spare;
  {
    std::unique_lock<std::shared_mutex> lock(loc_mu_);
    if (spares_.empty()) {
      return Status::Unavailable("IndependentDiskDevice: no spare attached");
    }
    spare = std::move(spares_.back());
    spares_.pop_back();
  }
  spare->set_retry_policy(retry_);
  spare->set_io_engine(engine_);
  const uint64_t old_tag = reinterpret_cast<uintptr_t>(disks_[d].get());
  if (engine_ != nullptr) engine_->SetDiskRebuilding(old_tag, true);
  {
    std::lock_guard<std::mutex> plock(parity_mu_);
    rebuilding_disk_ = int(d);
    rebuild_dirty_.clear();
  }
  // Slots drained so far -> their spare child block.
  std::unordered_map<uint64_t, uint64_t> drained;
  std::vector<char> buf(B);

  // Undo everything and re-park the spare (cancel or failure).
  auto park = [&](Status why) -> Status {
    for (auto& [slot, sc] : drained) spare->Free(sc);
    {
      std::lock_guard<std::mutex> plock(parity_mu_);
      rebuilding_disk_ = -1;
      rebuild_dirty_.clear();
    }
    {
      std::unique_lock<std::shared_mutex> lock(loc_mu_);
      spares_.push_back(std::move(spare));
    }
    if (engine_ != nullptr) engine_->SetDiskRebuilding(old_tag, false);
    return why;
  };

  // Whether `slot` is live and homed on head d (loc_mu_ held).
  auto homed = [&](uint64_t slot) {
    const uint64_t n = slot >> 1;
    if (slot & 1) {
      auto it = parity_.find(n);
      return it != parity_.end() && it->second.disk == d;
    }
    return n < loc_.size() && !freed_[n] && loc_[n].disk == d;
  };
  // Every slot homed on d that `want` accepts, in slot order (loc_mu_
  // held).
  auto homed_slots = [&](auto&& want) {
    std::vector<uint64_t> out;
    auto add = [&](uint64_t slot) {
      if (homed(slot) && want(slot)) out.push_back(slot);
    };
    for (uint64_t id = 0; id < loc_.size(); ++id) add(DataSlot(id));
    for (const auto& [g, pl] : parity_) add(ParitySlot(g));
    std::sort(out.begin(), out.end());
    return out;
  };

  // Copy `slot` into its spare block (parity_mu_ held), claiming the
  // block on first touch; the final pass re-copies a drained slot into
  // the block the drain claimed. A data block is read as it stands (a
  // quarantined-but-alive head is current — writes keep landing on it)
  // or reconstructed when d is dead; an unwritten one only claims its
  // block. A parity block is recomputed from the group's written live
  // members: the old copy may be stale, since updates skip a dead
  // parity head.
  auto copy_one = [&](uint64_t slot) -> Status {
    auto [it, fresh] = drained.try_emplace(slot, 0);
    if (fresh) it->second = spare->Allocate();
    const uint64_t n = slot >> 1;
    if (slot & 1) {
      std::vector<Loc> members;
      {
        std::shared_lock<std::shared_mutex> lock(loc_mu_);
        AppendWrittenMembersLocked(n, /*skip=*/UINT64_MAX, &members);
      }
      VEM_RETURN_IF_ERROR(XorBlocks(members, buf.data()));
    } else {
      ReconPlan plan;
      if (!BuildReconPlan(n, /*loc_locked=*/false, &plan)) {
        return Status::InvalidArgument("IndependentDiskDevice: lost block");
      }
      if (!plan.written) return Status::OK();
      VEM_RETURN_IF_ERROR(ReadCurrentLocked(plan, buf.data()));
    }
    VEM_RETURN_IF_ERROR(spare->WriteUncounted(it->second, buf.data()));
    g_rebuilt_blocks_.fetch_add(1, std::memory_order_relaxed);
    g_parity_bytes_.fetch_add(B, std::memory_order_relaxed);
    return Status::OK();
  };

  // Depth-gauge politeness between batches: back off while demand
  // traffic saturates the engine (bounded — rebuild must still make
  // progress on a permanently busy box).
  auto throttle = [&] {
    if (engine_ == nullptr) return;
    for (int spin = 0; spin < 100 && engine_->Headroom() < 0.25; ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  // Background drain of every slot homed on d, in throttled batches.
  std::vector<uint64_t> work;
  {
    std::shared_lock<std::shared_mutex> lock(loc_mu_);
    work = homed_slots([](uint64_t) { return true; });
  }
  Status err = Status::OK();
  for (size_t pos = 0; pos < work.size() && err.ok();) {
    if (cancel && cancel()) {
      return park(Status::Busy(
          "IndependentDiskDevice: rebuild cancelled (head recovered)"));
    }
    throttle();
    std::lock_guard<std::mutex> plock(parity_mu_);
    for (size_t k = 0; k < batch_blocks && pos < work.size() && err.ok();
         ++k, ++pos) {
      {
        // The workload may have freed or re-homed the slot since the
        // snapshot; the final pass handles anything that changes AFTER
        // this drain touches it (rebuild_dirty_).
        std::shared_lock<std::shared_mutex> lock(loc_mu_);
        if (!homed(work[pos])) continue;
      }
      err = copy_one(work[pos]);
    }
  }
  if (!err.ok()) return park(err);

  // Final quiesced pass. parity_mu_ blocks every mutator (Allocate,
  // Free, and all writes take it first), so the placement maps are
  // frozen; it re-copies only the slots the drain never reached or that
  // went dirty since. The copies still drop loc_mu_ around physical I/O.
  {
    std::lock_guard<std::mutex> plock(parity_mu_);
    std::vector<uint64_t> fix;
    {
      std::shared_lock<std::shared_mutex> lock(loc_mu_);
      fix = homed_slots([&](uint64_t slot) {
        return drained.count(slot) == 0 || rebuild_dirty_.count(slot) != 0;
      });
    }
    for (size_t i = 0; i < fix.size() && err.ok(); ++i) err = copy_one(fix[i]);
    if (err.ok()) {
      // SWAP: placement flips to the spare, the dead latch clears. The
      // retired head stays alive for the device's lifetime — engine
      // queues and health records key on its pointer.
      std::unique_lock<std::shared_mutex> lock(loc_mu_);
      for (auto& [slot, sc] : drained) {
        const uint64_t n = slot >> 1;
        if (!homed(slot)) {
          spare->Free(sc);  // freed, re-homed or dissolved while draining
        } else if (slot & 1) {
          parity_[n].child_id = sc;
          parity_written_.insert(n);
        } else {
          loc_[n] = Loc{uint32_t(d), sc};
        }
      }
      retired_.push_back(std::move(disks_[d]));
      disks_[d] = std::move(spare);
      dead_mask_.fetch_and(~(uint64_t{1} << d), std::memory_order_acq_rel);
      rebuilding_disk_ = -1;
      rebuild_dirty_.clear();
    }
  }
  if (!err.ok()) return park(err);
  if (engine_ != nullptr) {
    // The old head's health record (and its latched quarantine) retires
    // with it; the spare inherits the route label with a clean slate.
    engine_->SetDiskRebuilding(old_tag, false);
    engine_->ForgetDisk(old_tag);
    engine_->LabelDisk(reinterpret_cast<uintptr_t>(disks_[d].get()),
                       uint64_t{d} + 1);
  }
  return Status::OK();
}

void IndependentDiskDevice::set_retry_policy(RetryPolicy* retry) {
  BlockDevice::set_retry_policy(retry);
  // Children execute the physical transfers (and their batch loops are
  // where per-block retry granularity lives), so they carry the policy
  // too — mirroring set_io_engine.
  for (auto& d : disks_) d->set_retry_policy(retry);
}

void IndependentDiskDevice::set_io_engine(IoEngine* engine) {
  BlockDevice::set_io_engine(engine);
  for (size_t d = 0; d < disks_.size(); ++d) {
    disks_[d]->set_io_engine(engine);
    if (engine != nullptr) {
      // The child pointer is the disk tag RunPerDisk and EngineDiskTag use;
      // disk + 1 is the PrefetchRoute of every block it holds.
      engine->LabelDisk(reinterpret_cast<uintptr_t>(disks_[d].get()),
                        uint64_t{d} + 1);
    }
  }
}

uint64_t IndependentDiskDevice::PrefetchRoute(uint64_t block_id) const {
  Loc l;
  if (!Lookup(block_id, &l)) return 0;
  return uint64_t{l.disk} + 1;
}

uint64_t IndependentDiskDevice::EngineDiskTag(uint64_t block_id) const {
  Loc l;
  if (!Lookup(block_id, &l)) {
    return reinterpret_cast<uintptr_t>(this);
  }
  return reinterpret_cast<uintptr_t>(disks_[l.disk].get());
}

}  // namespace vem
