// A bounded blocking queue (mutex + condition variables) used for the
// prepared-batch *output* side of the loaders, where the consumer (the main
// training thread) wants to block until a batch is ready. The *input* side of
// SALIENT's loader uses the lock-free MpmcQueue, as in the paper.
//
// Locking discipline is machine-checked: every guarded field carries
// GUARDED_BY(mu_) and a Clang -Wthread-safety build rejects undisciplined
// access (docs/STATIC_ANALYSIS.md).
#pragma once

#include <chrono>
#include <deque>
#include <optional>

#include "check/shim.h"
#include "fault/failpoint.h"
#include "util/thread_annotations.h"

namespace salient {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Name this queue as a fault-injection site: producers then consult the
  /// failpoint `queue.<site>.push.wedge` and consumers
  /// `queue.<site>.pop.wedge`, each a scripted stall (the failpoint's @arg is
  /// the stall in microseconds) injected *outside* the queue lock — the
  /// thread wedges, the queue stays live. An unnamed queue skips the check
  /// entirely; a named one pays one relaxed load while unarmed.
  void set_fault_site(const std::string& site) {
    auto& reg = fault::Registry::global();
    push_wedge_ = &reg.failpoint("queue." + site + ".push.wedge");
    pop_wedge_ = &reg.failpoint("queue." + site + ".pop.wedge");
  }

  /// Block until space is available, then enqueue. Returns false if the
  /// queue was closed.
  bool push(T value) {
    if (push_wedge_) fault::maybe_wedge(*push_wedge_);
    check::UniqueLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) cv_not_full_.wait(lock);
    if (closed_) return false;
    items_.push_back(std::move(value));
    cv_not_empty_.notify_one();
    return true;
  }

  /// Non-blocking enqueue: fails (without moving from `value`) when the
  /// queue is full or closed. This is the admission-control primitive — a
  /// producer that must not stall behind a slow consumer sheds instead.
  bool try_push(T& value) {
    check::LockGuard lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    cv_not_empty_.notify_one();
    return true;
  }
  bool try_push(T&& value) { return try_push(value); }

  /// Wait up to `timeout` for an item. Returns nullopt on timeout, or once
  /// the queue is closed *and* drained. A zero (or negative) timeout polls.
  template <class Rep, class Period>
  std::optional<T> try_pop_for(std::chrono::duration<Rep, Period> timeout) {
    if (pop_wedge_) fault::maybe_wedge(*pop_wedge_);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    check::UniqueLock lock(mu_);
    while (!closed_ && items_.empty()) {
      if (cv_not_empty_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    cv_not_full_.notify_one();
    return value;
  }

  /// Block until an item is available; returns nullopt once the queue is
  /// closed *and* drained.
  std::optional<T> pop() {
    if (pop_wedge_) fault::maybe_wedge(*pop_wedge_);
    check::UniqueLock lock(mu_);
    while (!closed_ && items_.empty()) cv_not_empty_.wait(lock);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    cv_not_full_.notify_one();
    return value;
  }

  /// Close the queue: producers fail, consumers drain then get nullopt.
  void close() {
    check::LockGuard lock(mu_);
    closed_ = true;
    cv_not_empty_.notify_all();
    cv_not_full_.notify_all();
  }

  std::size_t size() const {
    check::LockGuard lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  bool closed() const {
    check::LockGuard lock(mu_);
    return closed_;
  }

 private:
  mutable check::Mutex mu_;
  check::CondVar cv_not_full_;
  check::CondVar cv_not_empty_;
  std::deque<T> items_ GUARDED_BY(mu_);
  std::size_t capacity_;  // unguarded: immutable after construction
  bool closed_ GUARDED_BY(mu_) = false;
  fault::Failpoint* push_wedge_ = nullptr;  // unguarded: set_fault_site once
  fault::Failpoint* pop_wedge_ = nullptr;   // unguarded: set_fault_site once
};

}  // namespace salient
