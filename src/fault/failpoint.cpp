#include "fault/failpoint.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace salient::fault {

namespace {

// Parse all of `field` as one number: no surrounding text, no sign on an
// unsigned count, and overflow or a non-finite real is a parse error rather
// than std::out_of_range or a value that sleep_for cannot take.
template <class T>
T parse_number(const std::string& field, const std::string& text) {
  T v{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  bool ok = !field.empty() && ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) throw std::invalid_argument("bad failpoint number: " + text);
  return v;
}

}  // namespace

TriggerSpec TriggerSpec::parse(const std::string& text) {
  std::string body = text;
  TriggerSpec spec;
  if (const auto at = body.find('@'); at != std::string::npos) {
    spec.arg = parse_number<double>(body.substr(at + 1), text);
    if (spec.arg < 0) {
      throw std::invalid_argument("failpoint @ARG must be >= 0: " + text);
    }
    body.resize(at);
  }
  // Split on ':' keeping empty fields, so "nth:3:" is rejected, not trimmed.
  std::vector<std::string> parts;
  for (std::size_t pos = 0;;) {
    const auto colon = body.find(':', pos);
    parts.push_back(body.substr(pos, colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  const std::string& mode = parts[0];
  auto want = [&](std::size_t lo, std::size_t hi) {
    if (parts.size() < lo + 1 || parts.size() > hi + 1) {
      throw std::invalid_argument("bad failpoint trigger: " + text);
    }
  };
  if (mode == "off") {
    want(0, 0);
    spec.mode = TriggerMode::kOff;
  } else if (mode == "always") {
    want(0, 0);
    spec.mode = TriggerMode::kAlways;
  } else if (mode == "nth") {
    want(1, 1);
    spec.mode = TriggerMode::kNth;
    spec.n = parse_number<std::uint64_t>(parts[1], text);
  } else if (mode == "every") {
    want(1, 1);
    spec.mode = TriggerMode::kEveryK;
    spec.n = parse_number<std::uint64_t>(parts[1], text);
  } else if (mode == "prob") {
    want(1, 2);
    spec.mode = TriggerMode::kProb;
    spec.p = parse_number<double>(parts[1], text);
    if (spec.p < 0 || spec.p > 1) {
      throw std::invalid_argument("failpoint P must be in [0, 1]: " + text);
    }
    if (parts.size() == 3) {
      spec.seed = parse_number<std::uint64_t>(parts[2], text);
    }
  } else {
    throw std::invalid_argument("unknown failpoint trigger: " + text);
  }
  if ((spec.mode == TriggerMode::kNth || spec.mode == TriggerMode::kEveryK) &&
      spec.n == 0) {
    throw std::invalid_argument("failpoint trigger needs N >= 1: " + text);
  }
  return spec;
}

Failpoint::Failpoint(std::string name) : name_(std::move(name)) {}

bool Failpoint::should_fire() {
  // Unarmed fast path: hits are not even counted, so an instrumented binary
  // with no schedule armed pays one relaxed load per site visit.
  if (mode_.load(std::memory_order_relaxed) == TriggerMode::kOff) {
    return false;
  }
  bool fire = false;
  {
    LockGuard lock(mu_);
    if (spec_.mode == TriggerMode::kOff) return false;  // disarmed racily
    const std::uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
    switch (spec_.mode) {
      case TriggerMode::kAlways:
        fire = true;
        break;
      case TriggerMode::kNth:
        fire = hit == spec_.n;
        break;
      case TriggerMode::kEveryK:
        fire = hit % spec_.n == 0;
        break;
      case TriggerMode::kProb:
        fire = static_cast<double>(rng_()) /
                   static_cast<double>(Xoshiro256ss::max()) <
               spec_.p;
        break;
      case TriggerMode::kOff:
        break;
    }
    if (fire) fires_.fetch_add(1, std::memory_order_relaxed);
  }
  if (fire) {
    static obs::Counter& m_fired =
        obs::Registry::global().counter("fault.fired");
    m_fired.add();
  }
  return fire;
}

void Failpoint::arm(const TriggerSpec& spec) {
  LockGuard lock(mu_);
  spec_ = spec;
  rng_ = Xoshiro256ss(spec.seed);
  hits_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  arg_.store(spec.arg, std::memory_order_relaxed);
  mode_.store(spec.mode, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // intentionally leaked
  return *instance;
}

Registry::Registry() {
  // Environment-configured schedules make any binary chaos-testable without
  // code changes: SALIENT_FAILPOINT_SPEC="dma.h2d=every:5,...".
  if (const char* env = std::getenv("SALIENT_FAILPOINT_SPEC")) {
    configure_from_spec(env);
  }
}

Failpoint& Registry::failpoint(const std::string& name) {
  LockGuard lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::make_unique<Failpoint>(name)).first;
  }
  return *it->second;
}

void Registry::configure(const std::string& name, const TriggerSpec& spec) {
  failpoint(name).arm(spec);
}

void Registry::configure_from_spec(const std::string& spec) {
  // Parse every entry before arming any, so a bad entry arms nothing.
  std::vector<std::pair<std::string, TriggerSpec>> parsed;
  std::stringstream ss(spec);
  for (std::string entry; std::getline(ss, entry, ',');) {
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("bad failpoint entry: " + entry);
    }
    parsed.emplace_back(entry.substr(0, eq),
                        TriggerSpec::parse(entry.substr(eq + 1)));
  }
  for (const auto& [name, trigger] : parsed) configure(name, trigger);
}

void Registry::disarm_all() {
  std::vector<Failpoint*> points;
  {
    LockGuard lock(mu_);
    points.reserve(points_.size());
    for (auto& [name, fp] : points_) points.push_back(fp.get());
  }
  for (Failpoint* fp : points) fp->disarm();
}

std::string Registry::dump() const {
  LockGuard lock(mu_);
  std::ostringstream os;
  for (const auto& [name, fp] : points_) {
    os << name << " " << (fp->armed() ? "armed" : "off") << " hits="
       << fp->hits() << " fires=" << fp->fires() << "\n";
  }
  return os.str();
}

void maybe_wedge(Failpoint& fp) {
  if (!fp.should_fire()) return;
  const double us = fp.arg();
  if (us <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

}  // namespace salient::fault
