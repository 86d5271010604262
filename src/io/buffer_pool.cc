#include "io/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "io/memory_arbiter.h"

namespace vem {

BufferPool::BufferPool(BlockDevice* dev, size_t num_frames,
                       MemoryArbiter* arbiter, TenantLease* tenant)
    : dev_(dev) {
  if (num_frames == 0) num_frames = 1;
  baseline_frames_ = num_frames;
  // Arbitrated mode needs the uncounted plane: physical transfers must
  // be chargeable on the ghost's schedule, not their own. Devices
  // without one get the classic fixed pool.
  if (arbiter != nullptr && dev_->SupportsUncounted()) {
    lease_ = arbiter->LeasePool(num_frames, tenant);
    report_every_ = arbiter->window_accesses();
    ghost_frames_.resize(num_frames);
    // The physical pool starts at the granted lease (== baseline unless
    // the arbiter is already out of headroom).
    num_frames = std::max<size_t>(lease_->target_frames(), 1);
  }
  AppendFrames(num_frames);
}

BufferPool::~BufferPool() {
  // Best-effort write-back; errors are unreportable from a destructor.
  (void)FlushAll();
}

void BufferPool::AppendFrames(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Frame f;
    f.data = AllocIoBuffer(dev_->block_size(), /*zeroed=*/true);
    frames_.push_back(std::move(f));
  }
}

void BufferPool::RemoveFrame(size_t idx) {
  if (frames_[idx].valid) table_.erase(frames_[idx].block_id);
  size_t last = frames_.size() - 1;
  if (idx != last) {
    // Swap-with-last: the heap payload travels with the Frame, so pinned
    // pointers into the last frame's buffer stay valid.
    frames_[idx] = std::move(frames_[last]);
    if (frames_[idx].valid) table_[frames_[idx].block_id] = idx;
  }
  frames_.pop_back();
  if (!frames_.empty()) clock_hand_ %= frames_.size();
}

Status BufferPool::WriteBack(Frame* f) {
  Status s = lease_ != nullptr ? dev_->WriteUncounted(f->block_id,
                                                      f->data.get())
                               : dev_->Write(f->block_id, f->data.get());
  if (s.ok()) {
    f->dirty = false;
    writebacks_++;
  }
  return s;
}

Status BufferPool::FindVictim(size_t* out) {
  // First pass preference: an invalid (never used) frame.
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].valid) {
      *out = i;
      return Status::OK();
    }
  }
  // Deterministic all-pinned check up front (O(1) via the maintained
  // pin census) instead of burning two fruitless CLOCK revolutions
  // before reporting it.
  if (pinned_count_ >= frames_.size()) {
    return Status::Busy("all " + std::to_string(frames_.size()) +
                        " buffer pool frames are pinned");
  }
  // CLOCK sweep; 2 * frames passes guarantee termination now that at
  // least one frame is unpinned (first visit clears reference bits).
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    Frame& f = frames_[clock_hand_];
    size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (f.pin_count > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.dirty) {
      VEM_RETURN_IF_ERROR(WriteBack(&f));
    }
    table_.erase(f.block_id);
    f.valid = false;
    *out = idx;
    return Status::OK();
  }
  return Status::Busy("buffer pool victim sweep exhausted");
}

// ------------------------------------------------------- ghost directory

Status BufferPool::GhostVictim(size_t* out) {
  for (size_t i = 0; i < ghost_frames_.size(); ++i) {
    if (!ghost_frames_[i].valid) {
      *out = i;
      return Status::OK();
    }
  }
  if (ghost_pinned_count_ >= ghost_frames_.size()) {
    return Status::Busy("all " + std::to_string(ghost_frames_.size()) +
                        " buffer pool frames are pinned");
  }
  for (size_t step = 0; step < 2 * ghost_frames_.size(); ++step) {
    GhostFrame& g = ghost_frames_[ghost_hand_];
    size_t idx = ghost_hand_;
    ghost_hand_ = (ghost_hand_ + 1) % ghost_frames_.size();
    if (g.pin_count > 0) continue;
    if (g.referenced) {
      g.referenced = false;
      continue;
    }
    if (g.dirty) {
      // The baseline pool would have written this victim back here.
      // Id-aware so a per-block-placement device charges the right child.
      dev_->AccountWriteIds(&g.block_id, 1);
      g.dirty = false;
    }
    ghost_table_.erase(g.block_id);
    g.valid = false;
    *out = idx;
    return Status::OK();
  }
  return Status::Busy("buffer pool victim sweep exhausted");
}

Status BufferPool::GhostPin(uint64_t id, bool* charge_read) {
  *charge_read = false;
  auto it = ghost_table_.find(id);
  if (it != ghost_table_.end()) {
    GhostFrame& g = ghost_frames_[it->second];
    if (g.pin_count == 0) ghost_pinned_count_++;
    g.pin_count++;
    g.referenced = true;
    return Status::OK();
  }
  size_t idx;
  VEM_RETURN_IF_ERROR(GhostVictim(&idx));
  // The baseline pool would read the block into the victim here — but
  // it charges nothing when that read fails, so the caller settles the
  // charge only after the physical outcome is known.
  *charge_read = true;
  GhostFrame& g = ghost_frames_[idx];
  g.block_id = id;
  g.pin_count = 1;
  ghost_pinned_count_++;
  g.dirty = false;
  g.valid = true;
  g.referenced = true;
  ghost_table_[id] = idx;
  return Status::OK();
}

Status BufferPool::GhostPinNew(uint64_t id) {
  size_t idx;
  VEM_RETURN_IF_ERROR(GhostVictim(&idx));
  GhostFrame& g = ghost_frames_[idx];
  g.block_id = id;
  g.pin_count = 1;
  ghost_pinned_count_++;
  g.dirty = true;  // must reach the device eventually
  g.valid = true;
  g.referenced = true;
  ghost_table_[id] = idx;
  return Status::OK();
}

void BufferPool::GhostUnpin(uint64_t id, bool dirty) {
  auto it = ghost_table_.find(id);
  if (it == ghost_table_.end()) return;
  GhostFrame& g = ghost_frames_[it->second];
  if (g.pin_count > 0) {
    g.pin_count--;
    if (g.pin_count == 0) ghost_pinned_count_--;
  }
  if (dirty) g.dirty = true;
}

void BufferPool::GhostEvict(uint64_t id) {
  auto it = ghost_table_.find(id);
  if (it == ghost_table_.end()) return;
  GhostFrame& g = ghost_frames_[it->second];
  if (g.pin_count > 0) ghost_pinned_count_--;
  g.valid = false;
  g.dirty = false;
  g.pin_count = 0;
  ghost_table_.erase(it);
}

void BufferPool::GhostFlushId(uint64_t id) {
  auto it = ghost_table_.find(id);
  if (it == ghost_table_.end()) return;
  GhostFrame& g = ghost_frames_[it->second];
  if (g.valid && g.dirty) {
    g.dirty = false;
    dev_->AccountWriteIds(&g.block_id, 1);
  }
}

// ----------------------------------------------------------- access path

Status BufferPool::Pin(uint64_t id, char** data) {
  // Classify (and count) the access physically up front: hits_/misses_
  // describe the resized pool's real behavior, Busy outcomes included,
  // in both modes.
  auto it = table_.find(id);
  if (it != table_.end()) {
    hits_++;
  } else {
    misses_++;
  }
  // Ghost next: it decides both the PDM charge and the Busy outcome a
  // baseline pool would have produced.
  bool ghost_hit = false;
  bool ghost_charge_read = false;
  if (lease_ != nullptr) {
    ghost_hit = ghost_table_.find(id) != ghost_table_.end();
    VEM_RETURN_IF_ERROR(GhostPin(id, &ghost_charge_read));
  }
  // A physical failure below must hand the ghost pin back, or failed
  // (and retried) pins would wedge the ghost directory all-pinned. A
  // fresh ghost admission is dropped entirely, mirroring the baseline
  // pool's invalidated victim after a failed read.
  auto ghost_undo = [&] {
    if (lease_ == nullptr) return;
    if (ghost_hit) {
      GhostUnpin(id, false);
    } else {
      GhostEvict(id);
    }
  };
  if (it != table_.end()) {
    // Physical hit: nothing can fail past here, settle the ghost read.
    if (ghost_charge_read) dev_->AccountReadBatch(&id, 1);
    Frame& f = frames_[it->second];
    if (f.pin_count == 0) pinned_count_++;
    f.pin_count++;
    f.referenced = true;
    *data = f.data.get();
    NoteAccess(/*hit=*/true);
    return Status::OK();
  }
  size_t idx;
  Status v = FindVictim(&idx);
  if (v.IsBusy() && lease_ != nullptr) {
    // The baseline pool had an unpinned frame (the ghost admitted the
    // pin) but the shrunk physical pool does not: borrow an emergency
    // frame rather than diverge from baseline behavior. The frame is a
    // transient physical overshoot of the lease, bounded by the pinned
    // set (pinned memory cannot be revoked); the next access window
    // sheds it back toward the target once the pins release.
    idx = frames_.size();
    AppendFrames(1);
  } else if (!v.ok()) {
    ghost_undo();
    return v;
  }
  Frame& f = frames_[idx];
  Status r = lease_ != nullptr ? dev_->ReadUncounted(id, f.data.get())
                               : dev_->Read(id, f.data.get());
  if (!r.ok()) {
    // A failed baseline read charges nothing either; only the victim
    // write-back (already accounted, in both modes) stands.
    ghost_undo();
    return r;
  }
  if (ghost_charge_read) dev_->AccountReadBatch(&id, 1);
  f.block_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.valid = true;
  f.referenced = true;
  pinned_count_++;
  table_[id] = idx;
  *data = f.data.get();
  NoteAccess(/*hit=*/false);
  return Status::OK();
}

Status BufferPool::PinNew(uint64_t* id, char** data) {
  size_t idx;
  Status v = FindVictim(&idx);
  bool emergency = v.IsBusy() && lease_ != nullptr;
  if (!emergency && !v.ok()) return v;
  uint64_t nid = dev_->Allocate();
  if (lease_ != nullptr) {
    Status g = GhostPinNew(nid);
    if (!g.ok()) {
      // Baseline would have failed: undo the allocation and mirror it.
      dev_->Free(nid);
      return g;
    }
  }
  if (emergency) {
    // See Pin: ghost admitted, shrunk physical pool is all pinned.
    idx = frames_.size();
    AppendFrames(1);
  }
  Frame& f = frames_[idx];
  std::memset(f.data.get(), 0, dev_->block_size());
  f.block_id = nid;
  f.pin_count = 1;
  pinned_count_++;
  f.dirty = true;  // must reach the device eventually
  f.valid = true;
  f.referenced = true;
  table_[nid] = idx;
  *id = nid;
  *data = f.data.get();
  NoteAccess(/*hit=*/false);
  return Status::OK();
}

void BufferPool::Unpin(uint64_t id, bool dirty) {
  if (lease_ != nullptr) GhostUnpin(id, dirty);
  auto it = table_.find(id);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  if (f.pin_count > 0) {
    f.pin_count--;
    if (f.pin_count == 0) pinned_count_--;
  }
  if (dirty) f.dirty = true;
}

Status BufferPool::FlushAll() {
  // One vectored WriteBatch, sorted by block id so runs of contiguous
  // blocks coalesce into single pwritev calls on capable devices. The
  // charge equals the per-frame Write loop, so the cost model is
  // unchanged — only syscall count and seek order improve. In
  // arbitrated mode the charge is the ghost's dirty set (what the
  // baseline pool would have flushed) and the physical writes ride the
  // uncounted plane.
  std::vector<size_t> dirty;
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i].valid && frames_[i].dirty) dirty.push_back(i);
  }
  if (lease_ != nullptr) {
    // Ghost-dirty pages with no physical counterpart (physically
    // evicted and written back earlier) flush charge-only up front —
    // nothing can fail for them. Pages both sides hold dirty are
    // charged per physical segment below, so a mid-flush device error
    // leaves their ghost dirty bits set and a retry re-charges exactly
    // what it re-writes, as the baseline pool would.
    for (GhostFrame& g : ghost_frames_) {
      if (!g.valid || !g.dirty) continue;
      auto it = table_.find(g.block_id);
      bool physically_dirty =
          it != table_.end() && frames_[it->second].dirty;
      if (!physically_dirty) {
        g.dirty = false;
        dev_->AccountWriteIds(&g.block_id, 1);
      }
    }
  }
  if (dirty.empty()) return Status::OK();
  std::sort(dirty.begin(), dirty.end(), [this](size_t a, size_t b) {
    return frames_[a].block_id < frames_[b].block_id;
  });
  // Flush one contiguous-id segment per WriteBatch and clear dirty bits
  // segment by segment, so a mid-flush device error leaves already-
  // written frames clean — a retry rewrites (and re-charges) at most
  // one segment, as the old per-frame loop would.
  size_t s = 0;
  while (s < dirty.size()) {
    size_t len = 1;
    while (s + len < dirty.size() &&
           frames_[dirty[s + len]].block_id ==
               frames_[dirty[s]].block_id + len) {
      len++;
    }
    std::vector<uint64_t> ids;
    std::vector<const void*> bufs;
    ids.reserve(len);
    bufs.reserve(len);
    for (size_t i = s; i < s + len; ++i) {
      ids.push_back(frames_[dirty[i]].block_id);
      bufs.push_back(frames_[dirty[i]].data.get());
    }
    VEM_RETURN_IF_ERROR(
        lease_ != nullptr
            ? dev_->WriteBatchUncounted(ids.data(), bufs.data(), len)
            : dev_->WriteBatch(ids.data(), bufs.data(), len));
    for (size_t i = s; i < s + len; ++i) frames_[dirty[i]].dirty = false;
    if (lease_ != nullptr) {
      for (size_t i = 0; i < len; ++i) GhostFlushId(ids[i]);
    }
    writebacks_ += len;
    s += len;
  }
  return Status::OK();
}

void BufferPool::Evict(uint64_t id) {
  if (lease_ != nullptr) GhostEvict(id);
  auto it = table_.find(id);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  if (f.pin_count > 0) pinned_count_--;
  f.valid = false;
  f.dirty = false;
  f.pin_count = 0;
  table_.erase(it);
}

// ---------------------------------------------------------------- sizing

Status BufferPool::Resize(size_t new_frames) {
  if (new_frames == 0) new_frames = 1;
  if (new_frames > frames_.size()) {
    AppendFrames(new_frames - frames_.size());
  } else {
    // Shrink: dirty victims allowed (write-back); pinned are immovable.
    while (frames_.size() > new_frames) {
      size_t victim = 0;
      if (!FindShedVictim(/*allow_dirty=*/true, &victim)) break;
      Frame& f = frames_[victim];
      if (f.valid && f.dirty) VEM_RETURN_IF_ERROR(WriteBack(&f));
      RemoveFrame(victim);
    }
  }
  if (lease_ != nullptr) lease_->ConfirmFrames(frames_.size());
  if (frames_.size() > new_frames) {
    return Status::Busy("pinned frames block shrinking below " +
                        std::to_string(frames_.size()));
  }
  return Status::OK();
}

size_t BufferPool::TryGrow(size_t extra) {
  size_t grant = extra;
  if (lease_ != nullptr) {
    size_t target = lease_->target_frames();
    grant = target > frames_.size()
                ? std::min(extra, target - frames_.size())
                : 0;
  }
  AppendFrames(grant);
  if (lease_ != nullptr) lease_->ConfirmFrames(frames_.size());
  return grant;
}

size_t BufferPool::Shed(size_t max_frames) {
  size_t before = frames_.size();
  ShedTo(before > max_frames ? before - max_frames : 1);
  if (lease_ != nullptr) lease_->ConfirmFrames(frames_.size());
  return before - frames_.size();
}

void BufferPool::ShedTo(size_t target) {
  if (target == 0) target = 1;
  // Dirty and pinned frames never shed here (no I/O allowed).
  while (frames_.size() > target) {
    size_t victim = 0;
    if (!FindShedVictim(/*allow_dirty=*/false, &victim)) return;
    RemoveFrame(victim);
  }
}

bool BufferPool::FindShedVictim(bool allow_dirty, size_t* out) const {
  int best = -1;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    int rank;
    if (!f.valid) {
      rank = 0;
    } else if (f.pin_count > 0) {
      continue;
    } else if (!f.dirty) {
      rank = f.referenced ? 2 : 1;
    } else if (allow_dirty) {
      rank = 3;
    } else {
      continue;
    }
    if (best < 0 || rank < best) {
      best = rank;
      *out = i;
      if (rank == 0) break;
    }
  }
  return best >= 0;
}

void BufferPool::NoteAccess(bool hit) {
  if (lease_ == nullptr) return;
  if (hit) {
    window_hits_++;
  } else {
    window_misses_++;
  }
  if (++window_accesses_ < report_every_) return;
  size_t target = lease_->ReportWindow(window_hits_, window_misses_,
                                       cold_frames(), pinned_frames(),
                                       frames_.size());
  window_accesses_ = 0;
  window_hits_ = 0;
  window_misses_ = 0;
  if (target > frames_.size()) {
    AppendFrames(target - frames_.size());
  } else if (target < frames_.size()) {
    ShedTo(target);
  }
  lease_->ConfirmFrames(frames_.size());
}

// --------------------------------------------------------- introspection

size_t BufferPool::cold_frames() const {
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.valid && f.pin_count == 0 && !f.referenced) n++;
  }
  return n;
}

size_t BufferPool::pinned_frames() const { return pinned_count_; }

size_t BufferPool::dirty_frames() const {
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.valid && f.dirty) n++;
  }
  return n;
}

}  // namespace vem
