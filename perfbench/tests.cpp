// Tests of the benchmark's own helpers: percentiles and the sample-count
// rule, metric-name validation and the result line, span self time, and
// seed plumbing (same seed -> same inputs, other seed -> other inputs).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::cerr << __FILE__ << ":" << __LINE__ << ": FAILED " #cond "\n"; \
    }                                                                  \
  } while (0)

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

using namespace perfbench;

void test_quantiles() {
  EXPECT(quantile({}, 0.5) == 0.0);
  EXPECT(median({5, 1, 3, 2, 4}) == 3.0);
  EXPECT(quantile({5, 1, 3, 2, 4}, 0.0) == 1.0);
  EXPECT(quantile({5, 1, 3, 2, 4}, 1.0) == 5.0);
  EXPECT(median({1, 2}) == 1.5);
  EXPECT(std::abs(quantile({0, 10}, 0.9) - 9.0) < 1e-12);
  EXPECT(mean({1, 2, 3, 6}) == 3.0);
}

void test_supported_quantile() {
  // The highest percentile with at least ten samples beyond it.
  EXPECT(supported_quantile(10000) == 0.999);
  EXPECT(supported_quantile(1000) == 0.99);
  EXPECT(supported_quantile(999) == 0.95);
  EXPECT(supported_quantile(100) == 0.9);
  EXPECT(supported_quantile(54) == 0.8);
  EXPECT(supported_quantile(20) == 0.5);
  EXPECT(supported_quantile(19) == 1.0);  // too few: report the maximum
  EXPECT(supported_quantile(0) == 1.0);
  EXPECT(supported_quantile(100, 1) == 0.99);
}

void test_metric_names() {
  EXPECT(valid_metric_name("p50_ms"));
  EXPECT(valid_metric_name("nn.layer0.fwd_ms"));
  EXPECT(valid_metric_name("a-b"));
  EXPECT(valid_metric_name("0x"));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name("_x"));
  EXPECT(!valid_metric_name(".x"));
  EXPECT(!valid_metric_name("a b"));
  EXPECT(!valid_metric_name("a/b"));
  EXPECT(!valid_metric_name("a\"b"));
  EXPECT(valid_unit("1/s"));
  EXPECT(valid_unit("GB/s"));
  EXPECT(!valid_unit(""));
  EXPECT(!valid_unit("req per s"));

  // Every declared metric is valid and declared once.
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metric_names(), &per_layer_metric_names()}) {
    for (const std::string& n : *list) {
      EXPECT(valid_metric_name(n));
      EXPECT(seen.insert(n).second);
    }
  }
  EXPECT(seen.count("setup_s") == 1);
}

void test_metric_set_and_result() {
  MetricSet m;
  m.add("latency_ms", 1.2345678901234567, "ms");
  EXPECT(throws([&] { m.add("latency_ms", 1, "ms"); }));
  EXPECT(throws([&] { m.add("bad name", 1, "ms"); }));
  EXPECT(throws([&] { m.add("nan_ms", std::nan(""), "ms"); }));
  EXPECT(throws([&] {
    m.add("inf_ms", std::numeric_limits<double>::infinity(), "ms");
  }));
  EXPECT(m.items().size() == 1);
  const std::string line = result_json(true, 3, 0, m);
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"latency_ms\": {\"value\": 1.2345678901234567, \"unit\": "
         "\"ms\"}}}");
  EXPECT(json_escape("a\"b\\c\n") == "a\\\"b\\\\c\\n");
}

void test_span_self_time() {
  SpanRecorder r;
  const int root = r.add("root", -1, 0, 10, -1);
  r.add("a", 0, 1, 3, root);
  r.add("b", 1, 2, 5, root);   // overlaps a: the union counts once
  const int c = r.add("c", 2, 6, 7, root);
  r.add("c.child", 2, 6, 6.5, c);
  EXPECT(std::abs(r.self_us(root) - 5.0) < 1e-12);
  EXPECT(std::abs(r.self_us(c) - 0.5) < 1e-12);
  EXPECT(r.children(root).size() == 3);

  SpanRecorder nested;
  const int v = nested.scope("outer", 7, [&] {
    return nested.scope("inner", 8, [] { return 42; });
  });
  EXPECT(v == 42);
  EXPECT(nested.spans().size() == 2);
  EXPECT(nested.spans()[1].parent == 0);
  EXPECT(nested.spans()[0].end_us >= nested.spans()[1].end_us);
  EXPECT(throws([&] {
    const int a = nested.begin("a");
    nested.begin("b");
    nested.end(a);
  }));
}

void test_seed_plumbing() {
  const auto make = [](std::uint64_t seed) {
    return dataset_checksum(
        salient::generate_dataset(dataset_config("arxiv-sim", 0.01, seed)));
  };
  EXPECT(make(7) == make(7));
  EXPECT(make(7) != make(8));

  const salient::Dataset ds =
      salient::generate_dataset(dataset_config("arxiv-sim", 0.01, 7));
  const auto ranked = rank_by_degree(ds.graph, ds.test_idx);
  EXPECT(ranked.size() == ds.test_idx.size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT(ds.graph.degree(ranked[i - 1]) >= ds.graph.degree(ranked[i]));
  }
  const auto a = draw_requests(ranked, 500, 4, 1.0, 7);
  const auto b = draw_requests(ranked, 500, 4, 1.0, 7);
  const auto c = draw_requests(ranked, 500, 4, 1.0, 8);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() == 500 && a[0].size() == 4);
  const std::set<salient::NodeId> population(ds.test_idx.begin(),
                                             ds.test_idx.end());
  std::map<salient::NodeId, int> hits;
  for (const auto& req : a) {
    for (const salient::NodeId v : req) {
      EXPECT(population.count(v) == 1);
      ++hits[v];
    }
  }
  // Zipf s=1 concentrates traffic on the top of the ranking: far fewer
  // distinct nodes than draws, and the first-ranked node drawn most.
  EXPECT(hits.size() < 1000 && hits.size() > 50);
  int most = 0;
  for (const auto& [v, n] : hits) most = std::max(most, n);
  EXPECT(hits[ranked[0]] == most);
}

}  // namespace

int main() {
  test_quantiles();
  test_supported_quantile();
  test_metric_names();
  test_metric_set_and_result();
  test_span_self_time();
  test_seed_plumbing();
  if (g_failures == 0) std::cout << "perfbench_tests: all passed\n";
  return g_failures == 0 ? 0 : 1;
}
