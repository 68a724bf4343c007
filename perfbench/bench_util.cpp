#include "bench_util.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/thread_pool.h"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double s = 0;
  for (const double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

double supported_quantile(std::size_t n, std::size_t min_beyond) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5}) {
    // Rounded so that e.g. 1000 * (1 - 0.99) counts as exactly 10.
    const double beyond = std::round(static_cast<double>(n) * (1.0 - q) * 1e6) / 1e6;
    if (beyond >= static_cast<double>(min_beyond)) return q;
  }
  return 1.0;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("invalid unit for " + name + ": " + unit);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for metric " + name);
  }
  for (const Metric& m : items_) {
    if (m.name == name) {
      throw std::invalid_argument("duplicate metric name: " + name);
    }
  }
  items_.push_back({name, value, unit});
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int SpanRecorder::begin(std::string name, std::int64_t id) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_us();
  spans_.push_back({std::move(name), id, parent, t, t});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: span closed out of order");
  }
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  open_.pop_back();
}

int SpanRecorder::add(std::string name, std::int64_t id, double start_us,
                      double end_us, int parent) {
  spans_.push_back({std::move(name), id, parent, start_us, end_us});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int> SpanRecorder::children(int i) const {
  std::vector<int> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    if (spans_[k].parent == i) out.push_back(static_cast<int>(k));
  }
  return out;
}

double SpanRecorder::self_us(int i) const {
  const Span& s = spans_[static_cast<std::size_t>(i)];
  // Union of the children's intervals, clipped to the parent's.
  std::vector<std::pair<double, double>> iv;
  for (const int c : children(i)) {
    const Span& k = spans_[static_cast<std::size_t>(c)];
    const double a = std::max(k.start_us, s.start_us);
    const double b = std::min(k.end_us, s.end_us);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0, cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return s.duration_us() - covered;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::setprecision(15) << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": \"" << json_escape(s.name) << "\", \"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"start_us\": " << s.start_us
       << ", \"end_us\": " << s.end_us << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream is(flags);
  std::string f;
  while (is >> f) {
    if (f == flag) return true;
  }
  return false;
}

}  // namespace

std::string fingerprint_json(int loader_workers) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const std::string flags = cpuinfo_field("flags");
  const std::size_t pool = salient::ThreadPool::global().size();
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"affinity_cpus\": " << usable << ", \"cpu_model\": \""
     << json_escape(cpuinfo_field("model name")) << "\""
     << ", \"cpu_avx2\": " << (has_flag(flags, "avx2") ? "true" : "false")
     << ", \"cpu_avx512f\": "
     << (has_flag(flags, "avx512f") ? "true" : "false")
     << ", \"cpu_f16c\": " << (has_flag(flags, "f16c") ? "true" : "false")
     << ", \"compiled_isa\": \""
#if defined(__AVX512F__)
     << "avx512f "
#endif
#if defined(__AVX2__)
     << "avx2 "
#endif
#if defined(__F16C__)
     << "f16c"
#endif
     << "\", \"compiler\": \"" << json_escape(compiler)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"SALIENT_TRACING\": " << (PERFBENCH_TRACING ? "true" : "false")
     << ", \"SALIENT_FAILPOINTS\": "
     << (PERFBENCH_FAILPOINTS ? "true" : "false")
     << ", \"SALIENT_MODEL_CHECK\": "
     << (PERFBENCH_MODEL_CHECK ? "true" : "false")
     << ", \"kernel_pool_workers\": " << pool
     << ", \"kernel_pool_chunks\": " << pool + 1
     << ", \"loader_workers\": " << loader_workers
     << ", \"workers_meaning\": \"" << loader_workers
     << " batch-preparation threads besides the main thread, plus the "
        "device's copy and compute stream threads, plus "
     << pool
     << " kernel-pool workers (a parallel_for runs pool workers + 1 chunks, "
        "the caller running one)\"}";
  return os.str();
}

}  // namespace perfbench
