// Measurement helpers of the repository benchmark (see METRICS.md):
// percentiles over raw samples, metric-name validation and the result line,
// benchmark-side spans with self time, and the machine fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of the samples, the
/// "closest ranks" definition: q = 0.5 is the median, q = 1 the maximum.
/// Returns 0 for an empty sample.
double quantile(std::vector<double> samples, double q);

/// Median of the samples (0 for an empty sample).
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Arithmetic mean (0 for an empty sample).
double mean(const std::vector<double>& samples);

/// The highest of the percentiles 99.9, 99, 95, 90, 80, 75 and 50 that has
/// at least `min_beyond` of `n` samples above it, as a fraction; 1.0 (the
/// maximum) when even the median has fewer. 1000 samples support 0.99.
double supported_quantile(std::size_t n, std::size_t min_beyond = 10);

/// A metric name of the result line: 1-64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// A unit: 1-16 characters from [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// An ordered set of named metrics. add() rejects invalid or repeated names
/// and non-finite values (std::invalid_argument), so a broken measurement
/// fails loudly instead of printing unparsable JSON.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The last line the benchmark prints: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep all their digits.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics);

/// Escape a string for a JSON string literal (without the quotes).
std::string json_escape(std::string_view s);

/// One benchmark-side span: a timed call into a public function.
struct Span {
  std::string name;
  std::int64_t id = -1;  ///< batch index, request id or operation index
  int parent = -1;       ///< index of the enclosing span, -1 at the root
  double start_us = 0;   ///< microseconds since the recorder's epoch
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

/// In-memory span recorder for the benchmark's own calls, written out once
/// at exit. begin()/end() nest on a stack (the calling thread's current
/// span becomes the parent); add() records a span with explicit times, for
/// intervals measured elsewhere (e.g. a request's queueing). Single-threaded.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  double now_us() const { return to_us(Clock::now()); }
  double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Open a span under the innermost open span; returns its index.
  int begin(std::string name, std::int64_t id = -1);
  /// Close span `index`, which must be the innermost open span.
  void end(int index);
  /// Record a closed span with explicit times under `parent`.
  int add(std::string name, std::int64_t id, double start_us, double end_us,
          int parent);

  /// Time f() as a span named `name`.
  template <class F>
  decltype(auto) scope(std::string name, std::int64_t id, F&& f) {
    struct Closer {
      SpanRecorder& r;
      int i;
      ~Closer() { r.end(i); }
    } closer{*this, begin(std::move(name), id)};
    return f();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `i` minus the part of it its children cover.
  double self_us(int i) const;
  /// Indices of the direct children of span `i`.
  std::vector<int> children(int i) const;
  /// Write every span as a JSON array; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Peak resident set size of this process in MB (VmHWM), 0 if unknown.
double peak_rss_mb();

/// Return freed heap to the system and restart the peak-RSS high-water mark
/// at the current resident size (no-op where /proc/self/clear_refs is not
/// writable).
void reset_peak_rss();

/// The machine and build a result was measured on, as one JSON object:
/// core count, CPU model, ISA flags, compiler, build type, the library's
/// build options, the kernel pool size and what "workers" means.
std::string fingerprint_json(int loader_workers);

}  // namespace perfbench
