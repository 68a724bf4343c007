// Deterministic fault injection (failpoints), gated only at run time.
//
// The pipeline's value is concurrency — sampler workers, pinned slicing,
// overlapped H2D/compute, serving threads — which means its failure modes are
// stalls, queue wedges, allocation failures, transfer errors and worker
// deaths. This framework lets tests *script* those faults deterministically
// instead of waiting for real hardware to misbehave:
//
//   * a process-global registry of named failpoints ("dma.h2d",
//     "prep.worker.die", "queue.prep_out.wedge", ...);
//   * each failpoint is armed with a trigger: fire on the Nth hit, every Kth
//     hit, with seeded probability p per hit, always, or never;
//   * sites consult their failpoint via SALIENT_FAILPOINT("name") — a bool
//     expression that costs one relaxed atomic load while the failpoint is
//     unarmed, so every build carries every site;
//   * schedules are configured programmatically (tests) or from the
//     SALIENT_FAILPOINT_SPEC environment variable, e.g.
//       SALIENT_FAILPOINT_SPEC="dma.h2d=every:5,prep.worker.die=nth:3"
//
// Determinism: triggers depend only on a failpoint's own hit counter and its
// own seeded RNG, never on wall time or global randomness. Which *thread*
// takes a given hit may vary with scheduling, but the hardened pipeline is
// required to produce identical results wherever a fault lands (lossless
// recovery) — the property tests/test_chaos.cpp asserts.
//
// Naming convention (docs/TESTING.md): `<subsystem>.<site>[.<fault>]`, e.g.
// dma.h2d, pinned.exhausted, prep.worker.die, serve.prep.fail,
// queue.<name>.wedge, mpmc.<name>.pop_empty; the cluster fault sites
// (docs/DISTRIBUTED.md) are dist.net.drop, dist.net.degrade,
// dist.node.fail and dist.node.slow.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/rng.h"
#include "util/thread_annotations.h"

namespace salient::fault {

enum class TriggerMode : std::uint8_t {
  kOff,     ///< never fires (the unarmed default)
  kAlways,  ///< fires on every hit
  kNth,     ///< fires exactly once, on hit number N (1-based)
  kEveryK,  ///< fires on hits K, 2K, 3K, ...
  kProb,    ///< fires with probability p per hit (seeded, per-failpoint RNG)
};

/// How an armed failpoint decides to fire, plus an optional numeric argument
/// the site interprets (e.g. wedge duration in microseconds).
struct TriggerSpec {
  TriggerMode mode = TriggerMode::kOff;
  std::uint64_t n = 0;       ///< kNth: the hit; kEveryK: the period
  double p = 0.0;            ///< kProb: per-hit probability
  std::uint64_t seed = 1;    ///< kProb: RNG seed
  double arg = 0.0;          ///< site-interpreted (e.g. wedge microseconds)

  static TriggerSpec off() { return {}; }
  static TriggerSpec always() { return {TriggerMode::kAlways, 0, 0, 1, 0}; }
  static TriggerSpec nth(std::uint64_t hit) {
    return {TriggerMode::kNth, hit, 0, 1, 0};
  }
  static TriggerSpec every(std::uint64_t k) {
    return {TriggerMode::kEveryK, k, 0, 1, 0};
  }
  static TriggerSpec prob(double probability, std::uint64_t seed) {
    return {TriggerMode::kProb, 0, probability, seed, 0};
  }
  TriggerSpec with_arg(double a) const {
    TriggerSpec s = *this;
    s.arg = a;
    return s;
  }

  /// Parse "off" | "always" | "nth:N" | "every:K" | "prob:P[:SEED]", each
  /// optionally suffixed "@ARG". N, K and SEED are unsigned integers (N, K
  /// >= 1), P is in [0, 1] and ARG is finite and >= 0; each field must be
  /// a number and nothing else. Throws std::invalid_argument on bad input.
  static TriggerSpec parse(const std::string& text);
};

/// One named failpoint. Never destroyed (owned by the registry), so sites
/// may cache references/pointers for the process lifetime.
class Failpoint {
 public:
  explicit Failpoint(std::string name);

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  /// Record a hit and evaluate the armed trigger. One relaxed atomic load
  /// when unarmed; a short mutex-protected section when armed (failpoints
  /// are a test harness, not a hot-path instrument).
  bool should_fire();

  /// Arm with `spec`, resetting the hit/fire counters and the trigger RNG —
  /// re-arming with the same spec reproduces the same schedule.
  void arm(const TriggerSpec& spec);
  void disarm() { arm(TriggerSpec::off()); }

  bool armed() const {
    return mode_.load(std::memory_order_relaxed) != TriggerMode::kOff;
  }
  /// The armed spec's site argument (e.g. wedge microseconds).
  double arg() const { return arg_.load(std::memory_order_relaxed); }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t fires() const {
    return fires_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  const std::string name_;  // unguarded: const
  std::atomic<TriggerMode> mode_{TriggerMode::kOff};
  std::atomic<double> arg_{0.0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fires_{0};
  Mutex mu_;  // guards spec_/rng_ and the armed-path counter updates
  TriggerSpec spec_ GUARDED_BY(mu_);
  Xoshiro256ss rng_ GUARDED_BY(mu_){1};
};

/// Process-global name -> failpoint registry (intentionally leaked, like the
/// obs registry, so worker threads may consult failpoints during teardown).
class Registry {
 public:
  static Registry& global();

  /// Get or create the named failpoint; the reference is valid forever.
  Failpoint& failpoint(const std::string& name);

  /// Arm `name` with `spec` (creating the failpoint if needed).
  void configure(const std::string& name, const TriggerSpec& spec);

  /// Arm from a comma-separated spec string: "a=nth:3,b=prob:0.1:42@500".
  /// Throws std::invalid_argument on malformed input, having armed nothing.
  void configure_from_spec(const std::string& spec);

  /// Disarm every registered failpoint (test isolation helper).
  void disarm_all();

  /// One "name mode hits fires" line per registered failpoint, sorted by
  /// name — printed by the chaos watchdog on timeout.
  std::string dump() const;

 private:
  Registry();

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Failpoint>> points_ GUARDED_BY(mu_);
};

/// RAII test helper: disarms every failpoint on construction and again on
/// destruction, so chaos tests cannot leak schedules into later tests.
struct ScopedDisarm {
  ScopedDisarm() { Registry::global().disarm_all(); }
  ~ScopedDisarm() { Registry::global().disarm_all(); }
};

/// Sleep for `fp`'s configured argument, in microseconds, when it fires —
/// the standard "wedge" site (stalled producer/consumer/kernel). Defined in
/// failpoint.cpp so headers using it do not pull in <thread>.
void maybe_wedge(Failpoint& fp);

}  // namespace salient::fault

// ---------------------------------------------------------------------------
// Site macros. SALIENT_FAILPOINT(name) is a bool expression; the name must be
// a string literal (each site resolves its failpoint once into a function-
// local static). An unarmed site costs one relaxed load (should_fire()).
// ---------------------------------------------------------------------------
#define SALIENT_FAILPOINT(name)                                      \
  ([]() -> bool {                                                    \
    static ::salient::fault::Failpoint& _salient_fp =                \
        ::salient::fault::Registry::global().failpoint(name);        \
    return _salient_fp.should_fire();                                \
  }())

/// Stall the calling thread for the failpoint's configured argument
/// (microseconds) when it fires; no-op otherwise.
#define SALIENT_FAILPOINT_WEDGE(name)                                \
  ([]() {                                                            \
    static ::salient::fault::Failpoint& _salient_fp =                \
        ::salient::fault::Registry::global().failpoint(name);        \
    ::salient::fault::maybe_wedge(_salient_fp);                      \
  }())

