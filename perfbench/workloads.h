// The benchmark's four workloads (see METRICS.md for what each measures and
// why it was chosen). Each runs in its own process, builds its inputs from
// the seed alone, and reports either the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/dataset.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget. It fixes the number of timed operations (epochs,
  /// passes, requests) rather than a deadline, so a run's work depends only
  /// on its arguments.
  int seconds = 10;
  /// Traced run: program tracing on, benchmark spans, layer replay.
  bool trace = false;
  /// Tiny inputs so that every workload finishes in seconds (tests).
  bool smoke = false;
  /// Where a traced run writes its span and program-trace files.
  std::string out_dir = "perfbench-out";
};

struct Outcome {
  /// Timed operations plus output checks attempted, and how many failed.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  MetricSet metrics;
  /// Batch-preparation threads the workload's pipeline ran (fingerprint).
  int loader_workers = 0;
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

/// The end-to-end metric names every untraced run prints, and the
/// per-layer names every traced run prints.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

/// Run one workload; throws std::invalid_argument for an unknown name.
Outcome run_workload(const Options& options);

// Seed plumbing, exposed for tests.

/// The dataset preset `preset` at `scale`, with its generator seed derived
/// from the benchmark seed.
salient::DatasetConfig dataset_config(const std::string& preset, double scale,
                                      std::uint64_t seed);

/// Order-sensitive checksum over the graph, features, labels and splits.
std::uint64_t dataset_checksum(const salient::Dataset& dataset);

/// `count` requests of `nodes_per_request` nodes each, drawn with Zipf(s)
/// popularity over `ranked`, most popular first (s = 0 is uniform).
std::vector<std::vector<salient::NodeId>> draw_requests(
    const std::vector<salient::NodeId>& ranked, std::size_t count,
    int nodes_per_request, double zipf_s, std::uint64_t seed);

/// `nodes` ordered by descending degree in `graph` (ties keep their order).
std::vector<salient::NodeId> rank_by_degree(const salient::CsrGraph& graph,
                                            std::vector<salient::NodeId> nodes);

}  // namespace perfbench
