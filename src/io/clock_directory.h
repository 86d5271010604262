// ClockDirectory: CLOCK (second chance) replacement bookkeeping for
// BufferPool, written once. The pool runs it over its physical frames
// (the payload is each frame's IoBuffer) and, in arbitrated mode, a
// second time as the payload-less ghost of its baseline capacity — so
// the policy the ghost charges by is the policy the frames follow.
//
// A slot holds a block id, pin count, dirty/valid/referenced bits and
// its payload. The directory owns the id -> slot table, the clock hand
// and two O(1) censuses: pinned slots and invalid (empty) slots. The
// invalid census lets a miss skip the search for an empty slot when
// there is none; victims are the same either way.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace vem {

/// Payload of a directory that keeps bookkeeping only (the ghost).
struct NoPayload {};

template <typename Payload>
class ClockDirectory {
 public:
  struct Slot {
    uint64_t block_id = 0;
    int pin_count = 0;
    bool dirty = false;
    bool valid = false;
    bool referenced = false;
    [[no_unique_address]] Payload data{};
  };

  size_t size() const { return slots_.size(); }
  size_t pinned() const { return pinned_; }
  Slot& operator[](size_t i) { return slots_[i]; }
  const Slot& operator[](size_t i) const { return slots_[i]; }
  auto begin() { return slots_.begin(); }
  auto end() { return slots_.end(); }
  auto begin() const { return slots_.begin(); }
  auto end() const { return slots_.end(); }

  /// The slot caching `id`, or null.
  Slot* Find(uint64_t id) {
    auto it = table_.find(id);
    return it == table_.end() ? nullptr : &slots_[it->second];
  }

  /// Add a pin to cached slot `s` and mark it referenced.
  void Pin(Slot& s) {
    if (s.pin_count++ == 0) pinned_++;
    s.referenced = true;
  }

  /// Drop one pin on `id` (no-op when not cached); `dirty` marks it.
  void Unpin(uint64_t id, bool dirty) {
    Slot* s = Find(id);
    if (s == nullptr) return;
    if (s->pin_count > 0 && --s->pin_count == 0) pinned_--;
    if (dirty) s->dirty = true;
  }

  /// Forget `id` without write-back (no-op when not cached).
  void Evict(uint64_t id) {
    auto it = table_.find(id);
    if (it == table_.end()) return;
    Slot& s = slots_[it->second];
    if (s.pin_count > 0) pinned_--;
    s.pin_count = 0;
    s.dirty = false;
    s.valid = false;
    invalid_++;
    table_.erase(it);
  }

  /// Fill empty slot `idx` (from Victim or Append) with `id`, pinned once.
  void Admit(size_t idx, uint64_t id, bool dirty) {
    slots_[idx] = Slot{.block_id = id, .pin_count = 1, .dirty = dirty,
                       .valid = true, .referenced = true,
                       .data = std::move(slots_[idx].data)};
    pinned_++;
    invalid_--;
    table_[id] = idx;
  }

  /// Append one empty slot carrying `data`.
  void Append(Payload data) {
    slots_.push_back(Slot{.data = std::move(data)});
    invalid_++;
  }

  /// Remove unpinned slot `idx` by swap-with-last. The payload moves
  /// with its slot, so pointers into a pinned frame's buffer stay valid.
  void Remove(size_t idx) {
    if (slots_[idx].valid) {
      table_.erase(slots_[idx].block_id);
    } else {
      invalid_--;
    }
    size_t last = slots_.size() - 1;
    if (idx != last) {
      slots_[idx] = std::move(slots_[last]);
      if (slots_[idx].valid) table_[slots_[idx].block_id] = idx;
    }
    slots_.pop_back();
    if (!slots_.empty()) hand_ %= slots_.size();
  }

  /// Empty a slot for a miss and return its index: the lowest-index
  /// empty slot if there is one; else Busy when every slot is pinned;
  /// else the CLOCK sweep, which ends within 2 * size() steps because
  /// the first visit clears reference bits. A dirty victim first goes
  /// through `on_dirty(slot)`; if that fails, the victim stays cached
  /// and dirty and the failure is returned.
  template <typename OnDirty>
  Status Victim(size_t* out, OnDirty&& on_dirty) {
    if (invalid_ > 0) {
      for (*out = 0; slots_[*out].valid; ++*out) {
      }
      return Status::OK();
    }
    if (pinned_ >= slots_.size()) {
      return Status::Busy("all " + std::to_string(slots_.size()) +
                          " buffer pool frames are pinned");
    }
    for (size_t step = 0; step < 2 * slots_.size(); ++step) {
      size_t idx = hand_;
      Slot& s = slots_[idx];
      hand_ = (hand_ + 1) % slots_.size();
      if (s.pin_count > 0) continue;
      if (s.referenced) {
        s.referenced = false;
        continue;
      }
      if (s.dirty) {
        VEM_RETURN_IF_ERROR(on_dirty(s));
        s.dirty = false;
      }
      table_.erase(s.block_id);
      s.valid = false;
      invalid_++;
      *out = idx;
      return Status::OK();
    }
    return Status::Busy("buffer pool victim sweep exhausted");
  }

 private:
  std::vector<Slot> slots_;
  std::unordered_map<uint64_t, size_t> table_;  // block id -> slot
  size_t hand_ = 0;
  size_t pinned_ = 0;   // slots with pin_count > 0
  size_t invalid_ = 0;  // slots with valid == false
};

}  // namespace vem
