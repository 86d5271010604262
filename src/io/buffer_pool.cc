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
    for (size_t i = 0; i < num_frames; ++i) ghost_.Append({});
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
    frames_.Append(AllocIoBuffer(dev_->block_size(), /*zeroed=*/true));
  }
}

Status BufferPool::WriteBack(const FrameDirectory::Slot& f) {
  Status s = lease_ != nullptr ? dev_->WriteUncounted(f.block_id,
                                                      f.data.get())
                               : dev_->Write(f.block_id, f.data.get());
  if (s.ok()) writebacks_++;
  return s;
}

Status BufferPool::FrameVictim(size_t* idx) {
  Status v = frames_.Victim(
      idx, [this](FrameDirectory::Slot& f) { return WriteBack(f); });
  if (!v.IsBusy() || lease_ == nullptr) return v;
  // The baseline pool may have an unpinned frame where the shrunk
  // physical pool has none: the caller borrows an emergency frame once
  // the ghost admits the access, rather than diverge from baseline
  // behavior. It is a transient physical overshoot of the lease,
  // bounded by the pinned set (pinned memory cannot be revoked); the
  // next access window sheds it back once the pins release.
  *idx = frames_.size();
  return Status::OK();
}

Status BufferPool::AdmitToGhost(uint64_t id, bool dirty) {
  size_t idx = 0;
  VEM_RETURN_IF_ERROR(ghost_.Victim(&idx, [this](GhostDirectory::Slot& g) {
    // The baseline pool would have written this victim back here.
    // Id-aware so a per-block-placement device charges the right child.
    dev_->AccountWriteIds(&g.block_id, 1);
    return Status::OK();
  }));
  ghost_.Admit(idx, id, dirty);
  return Status::OK();
}

// ----------------------------------------------------------- access path

Status BufferPool::Pin(uint64_t id, char** data) {
  // Classify (and count) the access physically up front: hits_/misses_
  // describe the resized pool's real behavior, Busy outcomes included,
  // in both modes.
  FrameDirectory::Slot* hit = frames_.Find(id);
  (hit != nullptr ? hits_ : misses_)++;
  // Ghost next: it decides both the PDM charge and the Busy outcome a
  // baseline pool would have produced. A ghost miss owes 1 read, charged
  // only once the physical transfer can no longer fail — the baseline,
  // too, charges nothing for a failed read.
  bool charge_read = false;
  if (lease_ != nullptr) {
    if (GhostDirectory::Slot* g = ghost_.Find(id)) {
      ghost_.Pin(*g);
    } else {
      VEM_RETURN_IF_ERROR(AdmitToGhost(id, /*dirty=*/false));
      charge_read = true;
    }
  }
  if (hit != nullptr) {
    // Physical hit: nothing can fail past here, settle the ghost read.
    if (charge_read) dev_->AccountReadBatch(&id, 1);
    frames_.Pin(*hit);
    *data = hit->data.get();
    NoteAccess(/*hit=*/true);
    return Status::OK();
  }
  size_t idx = 0;
  Status s = FrameVictim(&idx);
  if (s.ok()) {
    if (idx == frames_.size()) AppendFrames(1);
    s = lease_ != nullptr ? dev_->ReadUncounted(id, frames_[idx].data.get())
                          : dev_->Read(id, frames_[idx].data.get());
  }
  if (!s.ok()) {
    // Hand the ghost pin back, or failed (and retried) pins would wedge
    // the ghost all-pinned. A fresh admission is dropped, as the
    // baseline pool drops its victim after a failed read; only a victim
    // write-back already accounted (in both modes) stands.
    if (charge_read) {
      ghost_.Evict(id);
    } else if (lease_ != nullptr) {
      ghost_.Unpin(id, false);
    }
    return s;
  }
  if (charge_read) dev_->AccountReadBatch(&id, 1);
  frames_.Admit(idx, id, /*dirty=*/false);
  *data = frames_[idx].data.get();
  NoteAccess(/*hit=*/false);
  return Status::OK();
}

Status BufferPool::PinNew(uint64_t* id, char** data) {
  size_t idx = 0;
  VEM_RETURN_IF_ERROR(FrameVictim(&idx));
  uint64_t nid = dev_->Allocate();
  if (lease_ != nullptr) {
    Status g = AdmitToGhost(nid, /*dirty=*/true);
    if (!g.ok()) {
      // Baseline would have failed: undo the allocation and mirror it.
      dev_->Free(nid);
      return g;
    }
  }
  if (idx == frames_.size()) AppendFrames(1);
  // Dirty from birth: the zeroed block must reach the device eventually.
  frames_.Admit(idx, nid, /*dirty=*/true);
  *id = nid;
  *data = frames_[idx].data.get();
  std::memset(*data, 0, dev_->block_size());
  NoteAccess(/*hit=*/false);
  return Status::OK();
}

void BufferPool::Unpin(uint64_t id, bool dirty) {
  if (lease_ != nullptr) ghost_.Unpin(id, dirty);
  frames_.Unpin(id, dirty);
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
  auto charge_flush = [this](GhostDirectory::Slot& g) {
    g.dirty = false;
    dev_->AccountWriteIds(&g.block_id, 1);
  };
  if (lease_ != nullptr) {
    // Ghost-dirty pages with no physical counterpart (physically
    // evicted and written back earlier) flush charge-only up front —
    // nothing can fail for them. Pages both sides hold dirty are
    // charged per physical segment below, so a mid-flush device error
    // leaves their ghost dirty bits set and a retry re-charges exactly
    // what it re-writes, as the baseline pool would.
    for (GhostDirectory::Slot& g : ghost_) {
      if (!g.valid || !g.dirty) continue;
      FrameDirectory::Slot* f = frames_.Find(g.block_id);
      if (f == nullptr || !f->dirty) charge_flush(g);
    }
  }
  std::sort(dirty.begin(), dirty.end(), [this](size_t a, size_t b) {
    return frames_[a].block_id < frames_[b].block_id;
  });
  std::vector<uint64_t> ids;
  std::vector<const void*> bufs;
  for (size_t i : dirty) {
    ids.push_back(frames_[i].block_id);
    bufs.push_back(frames_[i].data.get());
  }
  // Flush one contiguous-id segment per WriteBatch and clear dirty bits
  // segment by segment, so a mid-flush device error leaves already-
  // written frames clean — a retry rewrites (and re-charges) at most
  // one segment, as the old per-frame loop would.
  for (size_t s = 0, len = 1; s < ids.size(); s += len, len = 1) {
    while (s + len < ids.size() && ids[s + len] == ids[s] + len) len++;
    VEM_RETURN_IF_ERROR(
        lease_ != nullptr
            ? dev_->WriteBatchUncounted(&ids[s], &bufs[s], len)
            : dev_->WriteBatch(&ids[s], &bufs[s], len));
    for (size_t i = s; i < s + len; ++i) {
      frames_[dirty[i]].dirty = false;
      if (lease_ == nullptr) continue;
      GhostDirectory::Slot* g = ghost_.Find(ids[i]);
      if (g != nullptr && g->dirty) charge_flush(*g);
    }
    writebacks_ += len;
  }
  return Status::OK();
}

void BufferPool::Evict(uint64_t id) {
  if (lease_ != nullptr) ghost_.Evict(id);
  frames_.Evict(id);
}

// ---------------------------------------------------------------- sizing

Status BufferPool::Resize(size_t new_frames) {
  VEM_RETURN_IF_ERROR(SizeTo(new_frames, /*allow_dirty=*/true));
  if (frames_.size() > std::max<size_t>(new_frames, 1)) {
    return Status::Busy("pinned frames block shrinking below " +
                        std::to_string(frames_.size()));
  }
  return Status::OK();
}

size_t BufferPool::TryGrow(size_t extra) {
  if (lease_ != nullptr) {
    size_t target = lease_->target_frames();
    extra = std::min(extra, target - std::min(target, frames_.size()));
  }
  (void)SizeTo(frames_.size() + extra, /*allow_dirty=*/false);
  return extra;
}

size_t BufferPool::Shed(size_t max_frames) {
  size_t before = frames_.size();
  (void)SizeTo(before > max_frames ? before - max_frames : 1,
               /*allow_dirty=*/false);
  return before - frames_.size();
}

Status BufferPool::SizeTo(size_t target, bool allow_dirty) {
  target = std::max<size_t>(target, 1);
  if (target > frames_.size()) AppendFrames(target - frames_.size());
  // Shrink: pinned frames are immovable.
  while (frames_.size() > target) {
    size_t victim = 0;
    if (!FindShedVictim(allow_dirty, &victim)) break;
    const FrameDirectory::Slot& f = frames_[victim];
    if (f.valid && f.dirty) VEM_RETURN_IF_ERROR(WriteBack(f));
    frames_.Remove(victim);
  }
  if (lease_ != nullptr) lease_->ConfirmFrames(frames_.size());
  return Status::OK();
}

bool BufferPool::FindShedVictim(bool allow_dirty, size_t* out) const {
  int best = -1;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const FrameDirectory::Slot& f = frames_[i];
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
  (hit ? window_hits_ : window_misses_)++;
  if (++window_accesses_ < report_every_) return;
  size_t target = lease_->ReportWindow(window_hits_, window_misses_,
                                       cold_frames(), pinned_frames(),
                                       frames_.size());
  window_accesses_ = 0;
  window_hits_ = 0;
  window_misses_ = 0;
  (void)SizeTo(target, /*allow_dirty=*/false);
}

// --------------------------------------------------------- introspection

size_t BufferPool::cold_frames() const {
  return std::count_if(frames_.begin(), frames_.end(), [](const auto& f) {
    return f.valid && f.pin_count == 0 && !f.referenced;
  });
}

size_t BufferPool::dirty_frames() const {
  return std::count_if(frames_.begin(), frames_.end(),
                       [](const auto& f) { return f.valid && f.dirty; });
}

}  // namespace vem
