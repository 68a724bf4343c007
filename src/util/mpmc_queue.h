// Bounded lock-free multi-producer/multi-consumer queue (Dmitry Vyukov's
// classic bounded MPMC ring).
//
// SALIENT's batch-preparation threads "balance load dynamically via a
// lock-free input queue that contains the destination nodes for each
// mini-batch" (paper §4.2). This queue is that structure: the trainer pushes
// mini-batch node ranges, the C++ preparation workers pop them.
//
// Properties: FIFO per producer, lock-free (no mutex on the fast path),
// bounded capacity (power of two), each slot carries a sequence number that
// arbitrates producers and consumers.
//
// Concurrency verification note (docs/STATIC_ANALYSIS.md): this queue holds
// no capability, so Clang's -Wthread-safety analysis has nothing to check
// here — its correctness argument is the per-slot acquire/release sequence
// protocol. The atomics go through check::atomic so the model checker
// (tests/test_model_check.cpp, SALIENT_MODEL_CHECK=ON) explores the SC
// interleavings of that protocol systematically; the TSan chaos job remains
// the dynamic check below SC.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

#include "check/shim.h"
#include "fault/failpoint.h"

namespace salient {

template <typename T>
class MpmcQueue {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit MpmcQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Name this queue as a fault-injection site: try_push then consults
  /// `mpmc.<site>.push_full` (spurious "queue full") and try_pop
  /// `mpmc.<site>.pop_empty` (spurious "queue empty"). These model transient
  /// contention/latency the lock-free fast path can exhibit under load;
  /// hardened callers must retry rather than drop work (the property
  /// tests/test_chaos.cpp verifies for the loader). An unnamed queue skips
  /// the check entirely; a named one pays one relaxed load while unarmed.
  void set_fault_site(const std::string& site) {
    auto& reg = fault::Registry::global();
    push_full_ = &reg.failpoint("mpmc." + site + ".push_full");
    pop_empty_ = &reg.failpoint("mpmc." + site + ".pop_empty");
  }

  /// Attempt to enqueue; returns false when the queue is full.
  bool try_push(T value) {
    if (push_full_ && push_full_->should_fire()) return false;
    Slot* slot;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const std::size_t seq = slot->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    slot->value = std::move(value);
    slot->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Attempt to dequeue; returns false when the queue is empty.
  bool try_pop(T& out) {
    if (pop_empty_ && pop_empty_->should_fire()) return false;
    Slot* slot;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const std::size_t seq = slot->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(slot->value);
    slot->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate number of enqueued items (racy; for monitoring only).
  std::size_t approx_size() const {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t h = head_.load(std::memory_order_relaxed);
    return t >= h ? t - h : 0;
  }

 private:
  struct Slot {
    check::atomic<std::size_t> seq;
    T value;
  };

  // Separate cache lines for head and tail to avoid false sharing.
  alignas(64) check::atomic<std::size_t> head_;
  alignas(64) check::atomic<std::size_t> tail_;
  alignas(64) std::unique_ptr<Slot[]> slots_;
  std::size_t mask_;
  fault::Failpoint* push_full_ = nullptr;
  fault::Failpoint* pop_empty_ = nullptr;
};

}  // namespace salient
