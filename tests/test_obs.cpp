// Tests for the observability subsystem (src/obs/): concurrent span
// recording, Chrome trace export validity, the metrics registry, histogram
// bucketing, the PhaseTimer->registry bridge, and the recorder's run-time
// switch (the only gate: the span macros are always compiled in).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/timeline.h"
#include "util/timer.h"

namespace salient {
namespace {

namespace json = obs::json;

/// Enable tracing for one test; leave the global recorder clean afterwards.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::global().reset();
    obs::TraceRecorder::global().enable(true);
  }
  void TearDown() override {
    obs::TraceRecorder::global().enable(false);
    obs::TraceRecorder::global().reset();
  }
};

std::vector<obs::CollectedEvent> events_named(
    const std::vector<obs::CollectedEvent>& all, const std::string& name) {
  std::vector<obs::CollectedEvent> out;
  for (const auto& ce : all) {
    if (ce.event.name == name) out.push_back(ce);
  }
  return out;
}

TEST_F(ObsTest, ConcurrentSpanEmissionIsCompleteAndConsistent) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;

  const double t0 = obs::TraceRecorder::global().now_us();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      SALIENT_TRACE_THREAD_NAME("worker-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        SALIENT_TRACE_SCOPE_ARG("t.span", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double t1 = obs::TraceRecorder::global().now_us();

  const auto all = obs::TraceRecorder::global().collect();
  const auto spans = events_named(all, "t.span");
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(obs::TraceRecorder::global().dropped(), 0u);

  // collect() promises a globally time-sorted view on the common timebase.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].event.ts_us, all[i].event.ts_us);
  }

  // Every span is well-formed and within the emission window; per thread,
  // all spans landed on that thread's buffer and the arg sequence covers
  // [0, kSpansPerThread).
  std::map<int, std::vector<std::int64_t>> args_by_tid;
  for (const auto& ce : spans) {
    EXPECT_EQ(ce.event.kind, obs::EventKind::kComplete);
    EXPECT_GE(ce.event.dur_us, 0.0);
    EXPECT_GE(ce.event.ts_us, t0);
    EXPECT_LE(ce.event.ts_us + ce.event.dur_us, t1);
    EXPECT_TRUE(ce.thread_name.rfind("worker-", 0) == 0) << ce.thread_name;
    args_by_tid[ce.tid].push_back(ce.event.arg);
  }
  ASSERT_EQ(args_by_tid.size(), static_cast<std::size_t>(kThreads));
  for (auto& [tid, args] : args_by_tid) {
    ASSERT_EQ(args.size(), static_cast<std::size_t>(kSpansPerThread));
    std::sort(args.begin(), args.end());
    for (int i = 0; i < kSpansPerThread; ++i) EXPECT_EQ(args[i], i);
  }
}

TEST_F(ObsTest, NestedSpansAreProperlyContained) {
  {
    SALIENT_TRACE_SCOPE("outer");
    SALIENT_TRACE_SCOPE("inner");
  }
  const auto all = obs::TraceRecorder::global().collect();
  const auto outer = events_named(all, "outer");
  const auto inner = events_named(all, "inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_LE(outer[0].event.ts_us, inner[0].event.ts_us);
  EXPECT_LE(inner[0].event.ts_us + inner[0].event.dur_us,
            outer[0].event.ts_us + outer[0].event.dur_us + 1e-3);
}

TEST_F(ObsTest, AsyncSpansMatchAcrossThreads) {
  SALIENT_TRACE_ASYNC_BEGIN("lifetime", 42);
  std::thread([] { SALIENT_TRACE_ASYNC_END("lifetime", 42); }).join();
  const auto all = obs::TraceRecorder::global().collect();
  const auto evs = events_named(all, "lifetime");
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].event.kind, obs::EventKind::kAsyncBegin);
  EXPECT_EQ(evs[1].event.kind, obs::EventKind::kAsyncEnd);
  EXPECT_EQ(evs[0].event.id, 42u);
  EXPECT_EQ(evs[1].event.id, 42u);
  EXPECT_NE(evs[0].tid, evs[1].tid);
  EXPECT_LE(evs[0].event.ts_us, evs[1].event.ts_us);
}

/// Shared validation: `text` is JSON and every traceEvents element carries
/// the keys the Chrome trace viewer requires.
void expect_valid_chrome_trace(const std::string& text,
                               std::size_t min_events) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(text, doc, error)) << error;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GE(events->array.size(), min_events);
  for (const json::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"ph", "ts", "pid", "tid", "name"}) {
      EXPECT_NE(e.find(key), nullptr) << "missing key " << key;
    }
  }
}

TEST_F(ObsTest, ChromeExportIsValidJsonWithRequiredKeys) {
  SALIENT_TRACE_THREAD_NAME("main");
  {
    SALIENT_TRACE_SCOPE_ARG("escaped \"name\" with \\ and \n", 7);
  }
  SALIENT_TRACE_INSTANT("marker");
  SALIENT_TRACE_ASYNC_BEGIN("abatch", 3);
  SALIENT_TRACE_ASYNC_END("abatch", 3);
  SALIENT_TRACE_COUNTER("depth", 5);
  std::ostringstream os;
  obs::TraceRecorder::global().write_chrome_trace(os);
  expect_valid_chrome_trace(os.str(), 6u);
}

TEST_F(ObsTest, RuntimeDisabledRecorderEmitsNothing) {
  obs::TraceRecorder::global().enable(false);
  {
    SALIENT_TRACE_SCOPE("quiet");
  }
  SALIENT_TRACE_INSTANT("quiet.marker");
  EXPECT_TRUE(obs::TraceRecorder::global().collect().empty());
}

TEST_F(ObsTest, EnabledRecorderRecordsOneEventPerMacro) {
  {
    SALIENT_TRACE_SCOPE("gate.span");
  }
  SALIENT_TRACE_INSTANT("gate.instant");
  SALIENT_TRACE_COUNTER("gate.counter", 1);
  EXPECT_EQ(obs::TraceRecorder::global().collect().size(), 3u);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  obs::Histogram h({1.0, 10.0, 100.0});
  // A value lands in the first bucket whose upper bound is >= value.
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(1.001);  // bucket 1
  h.observe(10.0);   // bucket 1
  h.observe(99.9);   // bucket 2
  h.observe(100.5);  // overflow (+Inf) bucket
  h.observe(1e9);    // overflow (+Inf) bucket
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 2);
  EXPECT_EQ(h.total_count(), 7);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 99.9 + 100.5 + 1e9, 1e-6);
  h.reset();
  EXPECT_EQ(h.total_count(), 0);
  EXPECT_EQ(h.bucket_count(3), 0);

  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({10.0, 1.0}), std::invalid_argument);
}

TEST(ObsMetrics, HistogramQuantileInterpolates) {
  obs::Histogram h({10.0, 20.0, 40.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  // 10 values uniform in (0,10], 10 in (10,20]: the median sits at the
  // bucket boundary and p75 lands mid-way through the second bucket.
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.75), 15.0, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 20.0, 1e-9);
  EXPECT_GT(h.quantile(0.1), 0.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
  // Out-of-range q clamps rather than throwing.
  EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
  // Overflow values clamp to the last finite bound.
  obs::Histogram o({10.0});
  o.observe(1e9);
  EXPECT_EQ(o.quantile(0.5), 10.0);
}

TEST(ObsMetrics, RegistryInstrumentsAndDumps) {
  auto& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("test.counter");
  c.reset();
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4);
  EXPECT_EQ(&reg.counter("test.counter"), &c);  // same instrument back

  obs::Gauge& g = reg.gauge("test.gauge");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);

  obs::Histogram& h = reg.histogram("test.histo", {1.0, 2.0});
  h.reset();
  h.observe(1.5);

  // Re-registering a name as a different kind is a programming error.
  EXPECT_THROW(reg.gauge("test.counter"), std::invalid_argument);
  EXPECT_THROW(reg.counter("test.gauge"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("test.counter", {1.0}), std::invalid_argument);

  const std::string text = reg.dump_text();
  EXPECT_NE(text.find("test.counter 4"), std::string::npos) << text;
  EXPECT_NE(text.find("test.gauge 3"), std::string::npos) << text;
  EXPECT_NE(text.find("test.histo"), std::string::npos) << text;

  std::ostringstream os;
  reg.write_json(os);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(os.str(), doc, error)) << error;
  const json::Value* counter = doc.find("test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number, 4.0);
  const json::Value* histo = doc.find("test.histo");
  ASSERT_NE(histo, nullptr);
  ASSERT_TRUE(histo->is_object());
  EXPECT_EQ(histo->find("count")->number, 1.0);
}

TEST(ObsMetrics, ConcurrentCounterUpdatesDontLose) {
  auto& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("test.concurrent");
  c.reset();
  obs::Gauge& g = reg.gauge("test.concurrent_gauge");
  g.reset();
  constexpr int kThreads = 8, kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &g] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        g.add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kIters);
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kIters);
}

TEST(ObsMetrics, PhaseTimerIsAViewOverTheRegistry) {
  auto& reg = obs::Registry::global();
  obs::Gauge& sample_s = reg.gauge("phase.sample.blocking_s");
  obs::Histogram& sample_ms = reg.histogram(
      "phase.sample.block_ms", {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
  const double before_s = sample_s.value();
  const std::int64_t before_n = sample_ms.total_count();

  PhaseTimer timer;
  timer.add(Phase::kSample, 0.25);
  timer.add(Phase::kSample, 0.5);

  EXPECT_DOUBLE_EQ(timer.total(Phase::kSample), 0.75);  // per-instance view
  EXPECT_NEAR(sample_s.value() - before_s, 0.75, 1e-9);  // global view
  EXPECT_EQ(sample_ms.total_count() - before_n, 2);
}

TEST(ObsJson, ParserAcceptsAndRejects) {
  json::Value v;
  std::string err;
  EXPECT_TRUE(json::parse(R"({"a":[1,2.5,-3e2],"b":"x\n","c":null,"d":true})",
                          v, err))
      << err;
  EXPECT_EQ(v.find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->array[2].number, -300.0);
  EXPECT_EQ(v.find("b")->string, "x\n");

  EXPECT_FALSE(json::parse("{", v, err));
  EXPECT_FALSE(json::parse("[1,]", v, err));
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", v, err));
  EXPECT_FALSE(json::parse("\"unterminated", v, err));
}

TEST(ObsTimeline, SimTimelineExportsChromeTrace) {
  sim::Timeline tl;
  tl.add("worker0", "sample", 0, 0.0, 0.5);
  tl.add("worker0", "slice", 0, 0.5, 0.8);
  tl.add("pcie0", "xfer", 0, 0.8, 1.0);
  tl.add("gpu0", "train", 0, 1.0, 1.6);
  std::ostringstream os;
  tl.write_chrome_trace(os);
  const std::string text = os.str();

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(text, doc, error)) << error;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t spans = 0, lanes = 0;
  for (const json::Value& e : events->array) {
    for (const char* key : {"ph", "ts", "pid", "tid", "name"}) {
      EXPECT_NE(e.find(key), nullptr);
    }
    if (e.find("ph")->string == "X") ++spans;
    if (e.find("ph")->string == "M" &&
        e.find("name")->string == "thread_name") {
      ++lanes;
    }
  }
  EXPECT_EQ(spans, 4u);
  EXPECT_EQ(lanes, 3u);  // worker0, pcie0, gpu0

  // The simulated makespan survives the unit conversion (seconds -> us).
  const json::Value& last = events->array.back();
  EXPECT_NEAR(last.find("ts")->number + last.find("dur")->number, 1.6e6, 1.0);
}

}  // namespace
}  // namespace salient
