// Span-based tracing with per-thread lock-free buffers.
//
// The paper's entire argument is made in timelines (Figure 1: the serial
// PyTorch workflow vs. SALIENT's overlapped pipeline). This subsystem makes
// that overlap *observable* in this reproduction: every interesting stretch
// of work — a sampling call in a preparation worker, a DMA on the copy
// stream, a training step on the compute stream — records a span, and the
// Chrome `trace_event` exporter (obs/chrome_trace.h) turns the recording
// into a file that chrome://tracing or https://ui.perfetto.dev renders with
// one track per thread. Worker threads, the H2D copy stream, and the GPU
// compute lane show up as separate lanes, exactly like Figure 1.
//
// Design:
//   * one global TraceRecorder; threads register a ThreadBuffer lazily on
//     first use (mutex only at registration, never on the hot path);
//   * appends are lock-free: the owning thread is the only writer, events
//     land in fixed-size chunks published through atomic pointers, and a
//     release-store of the count makes them visible to the exporter;
//   * recording is gated only at run time: a relaxed atomic flag, off by
//     default, so an instrumented binary pays one predictable branch per
//     span when tracing is not requested.
//
// Usage:
//   obs::TraceRecorder::global().enable(true);
//   {
//     SALIENT_TRACE_THREAD_NAME("prep-worker-0");
//     SALIENT_TRACE_SCOPE("prep.sample");          // RAII span
//     ...work...
//   }
//   obs::write_chrome_trace_file("trace.json");
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace salient::obs {

/// Chrome trace_event phases this recorder emits.
enum class EventKind : std::uint8_t {
  kComplete,    ///< 'X': a span with a start and a duration
  kInstant,     ///< 'i': a point-in-time marker
  kAsyncBegin,  ///< 'b': start of an async span (matched by name + id)
  kAsyncEnd,    ///< 'e': end of an async span
  kCounter,     ///< 'C': a sampled counter value (renders as a graph track)
};

/// Sentinel for "no numeric argument attached to this event".
inline constexpr std::int64_t kNoArg = INT64_MIN;

/// One recorded event. `name` must outlive the recorder: pass string
/// literals, or intern dynamic strings via TraceRecorder::intern().
struct TraceEvent {
  const char* name = "";
  double ts_us = 0;      ///< microseconds since the recorder epoch
  double dur_us = 0;     ///< kComplete only
  std::uint64_t id = 0;  ///< async id (kAsyncBegin/End) or counter value
  std::int64_t arg = kNoArg;  ///< optional numeric arg (exported as args.v)
  EventKind kind = EventKind::kComplete;
};

/// An event annotated with the track it was recorded on.
struct CollectedEvent {
  TraceEvent event;
  int tid = 0;              ///< recorder-assigned track id
  std::string thread_name;  ///< empty if the thread never named itself
};

namespace detail {

/// Per-thread event storage. Only the owning thread appends; the exporter
/// reads concurrently via acquire/release on `count_`. Chunks are allocated
/// on demand and never freed before the recorder resets, so readers can
/// follow published chunk pointers without synchronizing with the writer.
class ThreadBuffer {
 public:
  static constexpr std::size_t kChunkSize = 4096;
  static constexpr std::size_t kMaxChunks = 1024;  // 4M events / thread cap

  explicit ThreadBuffer(int tid) : tid_(tid) {}
  ~ThreadBuffer();

  ThreadBuffer(const ThreadBuffer&) = delete;
  ThreadBuffer& operator=(const ThreadBuffer&) = delete;

  void append(const TraceEvent& e);

  int tid() const { return tid_; }
  std::size_t size() const { return count_.load(std::memory_order_acquire); }
  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Read event `i`; only valid for i < a previously observed size().
  const TraceEvent& at(std::size_t i) const {
    return chunks_[i / kChunkSize].load(std::memory_order_acquire)
        ->events[i % kChunkSize];
  }

  void set_name(std::string name);
  std::string name() const;

  /// Discard all events (test use; the owning thread must be quiescent).
  void clear() { count_.store(0, std::memory_order_release); }

 private:
  struct Chunk {
    TraceEvent events[kChunkSize];
  };

  int tid_;  // unguarded: assigned once at registration
  // count_/dropped_/chunks_ are the lock-free append path: single-writer
  // atomics with acquire/release publication, deliberately outside any
  // capability. Only the (cold) track name is mutex-guarded.
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  mutable Mutex name_mu_;
  std::string name_ GUARDED_BY(name_mu_);
};

}  // namespace detail

/// Process-global trace recorder. All methods are thread-safe.
class TraceRecorder {
 public:
  /// The singleton every macro records into. Never destroyed (intentionally
  /// leaked) so worker threads may still record during static destruction.
  static TraceRecorder& global();

  /// Turn recording on/off at run time. Off by default.
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the recorder was constructed (steady clock). This is
  /// the common timebase of every event, so spans recorded by different
  /// threads are mutually ordered.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Record an event on the calling thread's buffer (no-op when disabled).
  void record(const TraceEvent& e);

  /// Name the calling thread's track ("prep-worker-3", "stream:copy0", ...).
  /// Works even while recording is disabled so late enables keep the names.
  void set_thread_name(std::string name);

  /// Copy a dynamic string into recorder-owned storage and return a pointer
  /// valid for the recorder's lifetime (event names must outlive export).
  const char* intern(const std::string& s);

  /// Snapshot all events recorded so far, across all threads, sorted by
  /// timestamp.
  std::vector<CollectedEvent> collect() const;

  /// Total events dropped because a thread hit its buffer cap.
  std::size_t dropped() const;

  /// Discard all recorded events (buffers stay registered). Test/benchmark
  /// helper; recording threads must be quiescent when this runs.
  void reset();

  /// Serialize everything recorded so far as Chrome trace_event JSON
  /// (see obs/chrome_trace.h for the format notes).
  void write_chrome_trace(std::ostream& os) const;

 private:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  detail::ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;  // unguarded: ctor-set
  mutable Mutex mu_;  // guards buffers_ registration and interned_
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<std::string>> interned_ GUARDED_BY(mu_);
};

/// RAII guard recording one kComplete span from construction to destruction.
/// Near-zero cost when the recorder is disabled (one relaxed atomic load).
/// A null `name` deactivates the span (callers with optional labels pass
/// them through).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int64_t arg = kNoArg) {
    TraceRecorder& r = TraceRecorder::global();
    if (name != nullptr && r.enabled()) {
      name_ = name;
      arg_ = arg;
      start_us_ = r.now_us();
      active_ = true;
    }
  }
  ~TraceSpan() {
    if (active_) {
      TraceRecorder& r = TraceRecorder::global();
      TraceEvent e;
      e.name = name_;
      e.ts_us = start_us_;
      e.dur_us = r.now_us() - start_us_;
      e.arg = arg_;
      e.kind = EventKind::kComplete;
      r.record(e);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = "";
  double start_us_ = 0;
  std::int64_t arg_ = kNoArg;
  bool active_ = false;
};

// Non-RAII helpers behind the macros (all runtime-gated on enabled()).

/// Record an instant marker.
void trace_instant(const char* name, std::int64_t arg = kNoArg);
/// Begin/end an async span; begin and end may come from different threads
/// and are matched by (name, id) — e.g. one span per mini-batch lifetime.
void trace_async_begin(const char* name, std::uint64_t id,
                       std::int64_t arg = kNoArg);
void trace_async_end(const char* name, std::uint64_t id);
/// Sample a counter value (renders as a graph track in the trace viewer).
void trace_counter(const char* name, std::int64_t value);

/// Convenience: serialize the global recorder to `path`; false on IO error.
bool write_chrome_trace_file(const std::string& path);

}  // namespace salient::obs

// ---------------------------------------------------------------------------
// Tracing macros. These are the only interface hot paths should use; each
// checks the recorder's run-time flag before doing any work.
// ---------------------------------------------------------------------------
#define SALIENT_TRACE_CONCAT_IMPL(a, b) a##b
#define SALIENT_TRACE_CONCAT(a, b) SALIENT_TRACE_CONCAT_IMPL(a, b)

/// RAII span covering the rest of the enclosing scope.
#define SALIENT_TRACE_SCOPE(name)                                   \
  ::salient::obs::TraceSpan SALIENT_TRACE_CONCAT(_salient_trace_span_, \
                                                 __LINE__) { name }
/// RAII span with a numeric argument (batch index, byte count, ...).
#define SALIENT_TRACE_SCOPE_ARG(name, arg)                             \
  ::salient::obs::TraceSpan SALIENT_TRACE_CONCAT(_salient_trace_span_, \
                                                 __LINE__) {           \
    name, static_cast<std::int64_t>(arg)                               \
  }
#define SALIENT_TRACE_INSTANT(name) ::salient::obs::trace_instant(name)
#define SALIENT_TRACE_ASYNC_BEGIN(name, id) \
  ::salient::obs::trace_async_begin(name, static_cast<std::uint64_t>(id))
#define SALIENT_TRACE_ASYNC_END(name, id) \
  ::salient::obs::trace_async_end(name, static_cast<std::uint64_t>(id))
#define SALIENT_TRACE_COUNTER(name, value) \
  ::salient::obs::trace_counter(name, static_cast<std::int64_t>(value))
#define SALIENT_TRACE_THREAD_NAME(name) \
  ::salient::obs::TraceRecorder::global().set_thread_name(name)

