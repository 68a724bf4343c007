#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/system.h"
#include "dist/cluster/cluster_trainer.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/adam.h"
#include "prep/batch.h"
#include "prep/pinned_pool.h"
#include "prep/slicing.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "train/inference.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace salient;

// ---------------------------------------------------------------------------
// Workload constants. Sizes are the ones the workload rationale in METRICS.md
// was measured at; the smoke sizes only prove that the code paths run.

constexpr std::int64_t kBatch = 1024;
constexpr std::int64_t kHidden = 64;
constexpr int kLayers = 3;
const std::vector<std::int64_t> kTrainFanouts{15, 10, 5};
const std::vector<std::int64_t> kInferFanouts{20, 20, 20};
constexpr int kTrainWorkers = 3;

/// Nominal seconds of one epoch or pass, converting --seconds into a fixed
/// operation count.
constexpr double kOpNominalS = 2.0;

/// Single-worker (deterministic) epochs that train the infer-products model.
constexpr int kInferSetupEpochs = 8;
/// Single-worker epochs that train the model serve-arxiv serves.
constexpr int kServeSetupEpochs = 1;

// Serving: 4-node requests over the test split, Zipf s=1 by degree rank (the
// best-connected node is the most requested), degree cache at 10% of |V|, no
// result cache, one open-loop generator.
constexpr int kNodesPerRequest = 4;
constexpr double kZipfS = 1.0;
constexpr double kServeCachePct = 0.10;
/// Fixed open-loop rate, in requests per second. For this request mix the
/// 20 ms p99 limit broke between 600 and 1200 req/s, and at 400 req/s the
/// server often stayed backlogged for seconds (see METRICS.md).
constexpr double kServeRate = 200.0;
/// Latency limit (SLO) of serve.slo_miss_share and of the server's own
/// serve.slo.{ok,miss} counters.
constexpr double kSloMs = 20.0;
/// Saturation throughput: requests kept in flight by the closed loop (two
/// full 256-node micro-batches), requests per round, and rounds.
constexpr std::size_t kSaturationOutstanding = 128;
constexpr std::size_t kSaturationRequests = 6000;
constexpr int kSaturationRounds = 5;
/// Floor of the fixed-rate phase: at least ten requests beyond p99.
constexpr std::size_t kMinFixedRequests = 1100;
/// Admission bound: large enough that the closed loop is never shed.
constexpr std::size_t kServeQueueCapacity = 1024;

// Cluster: 2 nodes, greedy partition, presample remote cache at 10%.
constexpr int kClusterNodes = 2;
constexpr double kClusterCachePct = 0.10;
constexpr int kClusterDepth = 2;

/// Output floors, well above chance (1/40 and 1/47 classes) and below the
/// values measured at the seed (see METRICS.md).
constexpr double kTrainValFloor = 0.85;
constexpr double kInferTestFloor = 0.70;
constexpr double kServeAccFloor = 0.50;
constexpr double kClusterValFloor = 0.85;

/// Reconciliation tolerances of the traced run.
constexpr double kReplayUnattributedTol = 0.05;
constexpr double kPhaseSumTol = 0.05;

struct Sizes {
  double arxiv_scale = 0.2;
  double products_scale = 0.1;
  /// Set-up repetitions: more where set-up is cheap (no set-up training).
  int setup_reps = 3;
  int cheap_setup_reps = 15;
  int replay_batches = 16;
  std::size_t min_requests = kMinFixedRequests;
  std::size_t saturation_requests = kSaturationRequests;
  std::size_t warmup_requests = 200;
  int infer_setup_epochs = kInferSetupEpochs;
  /// Accuracy floors; smoke-sized models only have to beat chance twice.
  bool smoke = false;
  double floor(double full, std::int64_t classes) const {
    return smoke ? 2.0 / static_cast<double>(classes) : full;
  }
};

Sizes sizes_for(const Options& o) {
  Sizes s;
  if (o.smoke) {
    s.arxiv_scale = 0.02;
    s.products_scale = 0.01;
    s.setup_reps = 1;
    s.cheap_setup_reps = 1;
    s.replay_batches = 2;
    s.min_requests = 60;
    s.saturation_requests = 200;
    s.warmup_requests = 10;
    s.infer_setup_epochs = 2;
    s.smoke = true;
  }
  return s;
}

int op_count(const Options& o, double nominal_s) {
  return std::max(2, static_cast<int>(std::lround(o.seconds / nominal_s)));
}

// ---------------------------------------------------------------------------
// Checks: every timed operation and every output check is one attempt.

struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
};

// ---------------------------------------------------------------------------
// Metric tables. Every untraced run prints every end-to-end metric, every
// traced run every per-layer metric; a layer a workload does not exercise
// reports 0.

struct EndToEnd {
  double setup_s = 0, p50_ms = 0, accuracy = 0, peak_rss_mb = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEndDefs = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"accuracy", "fraction"},
    {"peak_rss_mb", "MB"},
};

void emit(MetricSet& m, const EndToEnd& e) {
  const double values[] = {e.setup_s, e.p50_ms, e.accuracy, e.peak_rss_mb};
  for (std::size_t i = 0; i < kEndToEndDefs.size(); ++i) {
    m.add(kEndToEndDefs[i].name, values[i], kEndToEndDefs[i].unit);
  }
}

/// Per-layer values keyed by metric name; emit() prints every declared name,
/// defaulting to 0.
using Layers = std::map<std::string, double>;

const std::vector<MetricDef> kPerLayerDefs = {
    {"sampling.sample_ms", "ms"},
    {"sampling.input_rows", "count"},
    {"prep.slice_ms", "ms"},
    {"prep.loader_wait_s", "s"},
    {"prep.wire_mb", "MB"},
    {"prep.cache_hit_rate", "fraction"},
    {"device.h2d_ms", "ms"},
    {"device.transfer_block_s", "s"},
    {"device.dma_gbps", "GB/s"},
    {"nn.layer0.fwd_ms", "ms"},
    {"nn.layer1.fwd_ms", "ms"},
    {"nn.layer2.fwd_ms", "ms"},
    {"nn.finalize_ms", "ms"},
    {"nn.loss_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"optim.step_ms", "ms"},
    {"train.step_ms", "ms"},
    {"train.step_tail_ms", "ms"},
    {"train.step_share", "fraction"},
    {"train.phase_sum_share", "fraction"},
    {"train.final_loss", "nats"},
    {"infer.batch_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.batch_nodes", "count"},
    {"serve.p90_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.slo_miss_share", "fraction"},
    {"serve.saturation_per_s", "1/s"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.failed", "count"},
    {"dist.remote_mb", "MB"},
    {"dist.wire_mb", "MB"},
    {"dist.remote_hit_rate", "fraction"},
    {"dist.node_imbalance", "ratio"},
    {"dist.sim_epoch_s", "s"},
    {"dist.stall_s", "s"},
    {"replay.batch_ms", "ms"},
    {"replay.unattributed_share", "fraction"},
    {"trace.overhead_share", "fraction"},
    {"trace.reconcile_failures", "count"},
};

void emit(MetricSet& m, const Layers& values) {
  for (const auto& [name, _] : values) {
    const bool declared =
        std::any_of(kPerLayerDefs.begin(), kPerLayerDefs.end(),
                    [&](const MetricDef& d) { return name == d.name; });
    if (!declared) throw std::logic_error("undeclared metric " + name);
  }
  for (const MetricDef& d : kPerLayerDefs) {
    const auto it = values.find(d.name);
    m.add(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
}

double tail(const std::vector<double>& samples) {
  return quantile(samples, supported_quantile(samples.size()));
}

// ---------------------------------------------------------------------------
// Program tracing (src/obs) and the traced run's outputs.

void program_tracing(bool on) { obs::TraceRecorder::global().enable(on); }

/// Durations (ms) of the program's own complete spans named `name`.
std::vector<double> program_span_ms(const char* name) {
  std::vector<double> out;
  for (const obs::CollectedEvent& e : obs::TraceRecorder::global().collect()) {
    if (e.event.kind == obs::EventKind::kComplete &&
        std::string_view(e.event.name) == name) {
      out.push_back(e.event.dur_us / 1000.0);
    }
  }
  return out;
}

/// Tracing overhead: traced median over untraced median, minus one.
double overhead_share(const std::vector<double>& traced,
                      const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0 ? median(traced) / base - 1.0 : 0.0;
}

/// Wall times of a workload's timed operations. In a traced run the
/// odd-numbered ones run with program tracing on.
struct OpTimes {
  std::vector<double> all_ms, traced_ms, untraced_ms;
};

/// Run op(i, traced) for i in [0, count), each as a benchmark span `name`.
template <class Op>
OpTimes time_ops(const Options& o, SpanRecorder& spans, const char* name,
                 int count, Op&& op) {
  OpTimes t;
  for (int i = 0; i < count; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    program_tracing(traced);
    const int sp = spans.begin(name, i);
    const auto t0 = Clock::now();
    op(i, traced);
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    spans.end(sp);
    program_tracing(false);
    t.all_ms.push_back(ms);
    (traced ? t.traced_ms : t.untraced_ms).push_back(ms);
  }
  return t;
}

void write_trace_outputs(const Options& o, const SpanRecorder& spans) {
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  if (!spans.write_json(stem + ".spans.json") ||
      !obs::write_chrome_trace_file(stem + ".program-trace.json") ||
      !obs::Registry::global().write_json_file(stem + ".program-metrics.json")) {
    std::cerr << "perfbench: could not write trace outputs under "
              << o.out_dir << "\n";
  }
}

// ---------------------------------------------------------------------------
// Layer replay: a fixed number of the workload's own batches, serially
// through the public layer functions, each call a benchmark span.

struct ReplayBatch {
  std::vector<NodeId> nodes;
  std::uint64_t seed = 0;
};

const char* const kSpanSample = "FastSampler::sample";
const char* const kSpanStage = "stage_feature_rows";
const char* const kSpanTransfer = "DeviceSim::transfer_batch";
const char* const kSpanRelease = "release_batch_buffers";
const char* const kSpanLayer[kLayers] = {"GnnModel::apply_layer.0",
                                         "GnnModel::apply_layer.1",
                                         "GnnModel::apply_layer.2"};
const char* const kSpanFinalize = "GnnModel::finalize";
const char* const kSpanArgmax = "ops::argmax_rows";
const char* const kSpanLoss = "nn::nll_loss";
const char* const kSpanZeroGrad = "Module::zero_grad";
const char* const kSpanBackward = "Variable::backward";
const char* const kSpanStep = "optim::Adam::step";

struct ReplayResult {
  std::map<std::string, std::vector<double>> stage_ms;  ///< per batch
  std::vector<double> input_rows;
  std::vector<double> batch_ms;
  double unattributed_share = 0;
  double dma_gbps = 0;

  double stage_median(const std::string& name) const {
    const auto it = stage_ms.find(name);
    return it == stage_ms.end() ? 0.0 : median(it->second);
  }
  /// Per-batch sums over the named stages.
  std::vector<double> per_batch_sum(const std::vector<std::string>& names) const {
    std::vector<double> out(batch_ms.size(), 0.0);
    for (const std::string& n : names) {
      const auto it = stage_ms.find(n);
      if (it == stage_ms.end()) continue;
      for (std::size_t b = 0; b < out.size() && b < it->second.size(); ++b) {
        out[b] += it->second[b];
      }
    }
    return out;
  }
};

ReplayResult replay_batches(SpanRecorder& spans, const Dataset& ds,
                            nn::GnnModel& model,
                            const std::vector<std::int64_t>& fanouts,
                            const std::vector<ReplayBatch>& batches, bool train,
                            const FeatureCache* cache) {
  DeviceSim device;
  PinnedPool pool;
  FastSampler sampler(ds.graph, fanouts);
  std::unique_ptr<optim::Adam> adam;
  if (train) adam = std::make_unique<optim::Adam>(model.parameters(), 3e-3);
  model.train(train);

  ReplayResult r;
  const int root = spans.begin("replay");
  std::vector<int> batch_spans;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto id = static_cast<std::int64_t>(b);
    const int bspan = spans.begin("replay.batch", id);
    batch_spans.push_back(bspan);
    PreparedBatch pb;
    pb.index = id;
    pb.mfg = spans.scope(kSpanSample, id, [&] {
      return sampler.sample(batches[b].nodes, batches[b].seed);
    });
    r.input_rows.push_back(static_cast<double>(pb.mfg.num_input_nodes()));
    spans.scope(kSpanStage, id, [&] {
      if (cache != nullptr) {
        auto plan = std::make_shared<CachePlan>(plan_cached_batch(pb.mfg, *cache));
        stage_feature_rows(ds.features, missing_node_ids(pb.mfg, *plan),
                           DType::kF16, pool, pb);
        pb.cache_plan = std::move(plan);
      } else {
        stage_feature_rows(ds.features, pb.mfg.n_ids, DType::kF16, pool, pb);
      }
      pb.y = pool.acquire({pb.mfg.batch_size}, DType::kI64);
      slice_labels(ds.labels,
                   {pb.mfg.n_ids.data(),
                    static_cast<std::size_t>(pb.mfg.batch_size)},
                   pb.y);
    });
    DeviceBatch dev = spans.scope(kSpanTransfer, id, [&] {
      return pb.cache_plan
                 ? device.transfer_batch_cached(pb, *pb.cache_plan, *cache,
                                                /*blocking=*/true, nullptr)
                 : device.transfer_batch(pb, /*blocking=*/true, nullptr);
    });
    spans.scope(kSpanRelease, id,
                [&] { release_batch_buffers(pool, std::move(pb)); });
    Variable h(dev.x_f32, /*requires_grad=*/false);
    for (int l = 0; l < kLayers; ++l) {
      h = spans.scope(kSpanLayer[l], id, [&] {
        return model.apply_layer(l, h,
                                 dev.mfg.levels[static_cast<std::size_t>(l)]);
      });
    }
    Variable logp = spans.scope(kSpanFinalize, id, [&] { return model.finalize(h); });
    if (train) {
      Variable loss =
          spans.scope(kSpanLoss, id, [&] { return nn::nll_loss(logp, dev.y); });
      spans.scope(kSpanZeroGrad, id, [&] { model.zero_grad(); });
      spans.scope(kSpanBackward, id, [&] { loss.backward(); });
      spans.scope(kSpanStep, id, [&] { adam->step(); });
    } else {
      spans.scope(kSpanArgmax, id, [&] { ops::argmax_rows(logp.data()); });
    }
    spans.end(bspan);
  }
  spans.end(root);

  double unattributed_us = spans.self_us(root);
  for (const int bspan : batch_spans) {
    const Span& s = spans.spans()[static_cast<std::size_t>(bspan)];
    r.batch_ms.push_back(s.duration_us() / 1000.0);
    unattributed_us += spans.self_us(bspan);
    for (const int c : spans.children(bspan)) {
      const Span& k = spans.spans()[static_cast<std::size_t>(c)];
      r.stage_ms[k.name].push_back(spans.self_us(c) / 1000.0);
    }
  }
  const Span& rs = spans.spans()[static_cast<std::size_t>(root)];
  r.unattributed_share = rs.duration_us() > 0 ? unattributed_us / rs.duration_us() : 0;
  r.dma_gbps = device.dma().achieved_gb_per_s();
  return r;
}

/// Fill the replay-derived per-layer metrics; returns 1 when the stage
/// self-times fail to reconcile with the replay wall time.
int replay_layers(const ReplayResult& r, bool train, Layers& L) {
  L["sampling.sample_ms"] = r.stage_median(kSpanSample);
  L["sampling.input_rows"] = median(r.input_rows);
  L["prep.slice_ms"] = r.stage_median(kSpanStage);
  L["device.h2d_ms"] = r.stage_median(kSpanTransfer);
  for (int l = 0; l < kLayers; ++l) {
    L["nn.layer" + std::to_string(l) + ".fwd_ms"] = r.stage_median(kSpanLayer[l]);
  }
  L["nn.finalize_ms"] = r.stage_median(kSpanFinalize);
  if (train) {
    L["nn.loss_ms"] = r.stage_median(kSpanLoss);
    L["autograd.backward_ms"] = r.stage_median(kSpanBackward);
    L["optim.step_ms"] = r.stage_median(kSpanStep);
  }
  L["infer.batch_ms"] = mean(r.per_batch_sum(
      {kSpanSample, kSpanStage, kSpanLayer[0], kSpanLayer[1], kSpanLayer[2],
       kSpanFinalize, kSpanArgmax}));
  L["replay.batch_ms"] = median(r.batch_ms);
  L["replay.unattributed_share"] = r.unattributed_share;
  if (r.unattributed_share > kReplayUnattributedTol) {
    std::cerr << "RECONCILE FAILED: replay stage self-times cover "
              << (1 - r.unattributed_share) * 100 << "% of the replay wall time"
              << " (tolerance " << kReplayUnattributedTol * 100 << "%)\n";
    return 1;
  }
  return 0;
}

/// The training step's stages, per replayed batch.
std::vector<double> replay_step_ms(const ReplayResult& r) {
  return r.per_batch_sum({kSpanLayer[0], kSpanLayer[1], kSpanLayer[2],
                          kSpanFinalize, kSpanLoss, kSpanZeroGrad,
                          kSpanBackward, kSpanStep});
}

/// The first `count` batches of a training epoch's schedule, exactly as the
/// single-node loader and the cluster trainer build them: the epoch-seeded
/// shuffle, then contiguous batches; with `nodes` > 1, cluster node 0's
/// chunk of each global batch.
std::vector<ReplayBatch> training_schedule(const Dataset& ds,
                                           std::uint64_t base_seed, int epoch,
                                           int count, int nodes = 1) {
  const std::uint64_t epoch_seed =
      base_seed * 0x10001ull + static_cast<std::uint64_t>(epoch) + 1;
  std::vector<NodeId> order = ds.train_idx;
  schedule_shuffle(order, epoch_seed);
  const auto total = static_cast<std::int64_t>(order.size());
  std::vector<ReplayBatch> out;
  for (std::int64_t b = 0; b * kBatch < total && static_cast<int>(out.size()) < count; ++b) {
    const std::int64_t lo = b * kBatch;
    const std::int64_t rows = std::min(total, lo + kBatch) - lo;
    const ChunkRange chunk = chunk_range(rows, nodes, 0);
    if (chunk.empty()) continue;
    ReplayBatch rb;
    rb.nodes.assign(order.begin() + lo + chunk.begin, order.begin() + lo + chunk.end);
    rb.seed = schedule_mix_seed(epoch_seed, b * nodes);
    out.push_back(std::move(rb));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: repeated, timed, the last repetition kept.

struct SetupTimer {
  Clock::time_point process_start;
  std::vector<double> seconds;

  /// Run `teardown` then `build`, `reps` times; only `build` is timed. The
  /// first repetition is timed from process start, so it includes the static
  /// and library initialisation. The peak-RSS mark restarts before the last
  /// repetition: the discarded ones would otherwise stack in it, by an
  /// amount that depends on allocator arenas.
  template <class Teardown, class Build>
  void repeat(int reps, Teardown&& teardown, Build&& build) {
    for (int r = 0; r < reps; ++r) {
      teardown();
      if (r + 1 == reps) reset_peak_rss();
      const auto t0 = r == 0 ? process_start : Clock::now();
      build();
      seconds.push_back(seconds_between(t0, Clock::now()));
    }
  }
  double median_s() const { return median(seconds); }
};

SystemConfig system_config(const std::string& preset, std::uint64_t seed,
                           int workers) {
  SystemConfig sc;
  sc.dataset = preset;
  sc.arch = "sage";
  sc.hidden_channels = kHidden;
  sc.num_layers = kLayers;
  sc.train_fanouts = kTrainFanouts;
  sc.infer_fanouts = kInferFanouts;
  sc.batch_size = kBatch;
  sc.num_workers = workers;
  sc.feature_dtype = "f16";
  sc.feature_cache_nodes = 0;
  sc.cache_percentage = 0.0;
  sc.seed = seed;
  return sc;
}

// ---------------------------------------------------------------------------
// train-arxiv: pipelined training through System::train_epoch.

Outcome run_train(const Options& o, const Sizes& z, SetupTimer& setup,
                  SpanRecorder& spans) {
  Outcome out;
  out.loader_workers = kTrainWorkers;
  Checks checks;
  const SystemConfig sc = system_config("arxiv-sim", o.seed, kTrainWorkers);
  std::unique_ptr<System> sys;
  setup.repeat(z.cheap_setup_reps, [&] { sys.reset(); }, [&] {
    sys = std::make_unique<System>(
        generate_dataset(dataset_config("arxiv-sim", z.arxiv_scale, o.seed)), sc);
  });

  const EpochStats warm = sys->train_epoch();  // untimed warm-up
  checks.check(std::isfinite(warm.mean_loss), "warm-up epoch loss is finite");

  std::vector<EpochStats> traced_stats;
  EpochStats last;
  const OpTimes times = time_ops(
      o, spans, "System::train_epoch", op_count(o, kOpNominalS),
      [&](int e, bool traced) {
        last = sys->train_epoch();
        if (traced) traced_stats.push_back(last);
        checks.check(std::isfinite(last.mean_loss),
                     "epoch " + std::to_string(e) + " loss is finite");
      });
  checks.check(last.mean_loss < warm.mean_loss,
               "training loss falls (warm-up " + std::to_string(warm.mean_loss) +
                   " -> last " + std::to_string(last.mean_loss) + ")");
  const double val = spans.scope("System::val_accuracy", -1,
                                 [&] { return sys->val_accuracy(); });
  checks.check(val >= z.floor(kTrainValFloor, sys->dataset().num_classes),
               "val accuracy " + std::to_string(val) + " >= floor");

  if (!o.trace) {
    EndToEnd e;
    e.setup_s = setup.median_s();
    e.p50_ms = median(times.all_ms);
    e.accuracy = val;
    e.peak_rss_mb = peak_rss_mb();
    emit(out.metrics, e);
  } else {
    Layers L;
    std::vector<double> wait, block, share, sums, wire;
    for (const EpochStats& st : traced_stats) {
      wait.push_back(st.blocking.total(Phase::kSample));
      block.push_back(st.blocking.total(Phase::kTransfer));
      share.push_back(st.blocking.total(Phase::kTrain) / st.epoch_seconds);
      sums.push_back(st.blocking.grand_total() / st.epoch_seconds);
      wire.push_back(static_cast<double>(st.transfer_bytes) / 1e6);
    }
    L["prep.loader_wait_s"] = median(wait);
    L["device.transfer_block_s"] = median(block);
    L["train.step_share"] = median(share);
    L["train.phase_sum_share"] = median(sums);
    L["prep.wire_mb"] = median(wire);
    L["device.dma_gbps"] = sys->device().dma().achieved_gb_per_s();
    const std::vector<double> steps = program_span_ms("train.step");
    L["train.step_ms"] = median(steps);
    L["train.step_tail_ms"] = tail(steps);
    L["train.final_loss"] = last.mean_loss;
    L["trace.overhead_share"] = overhead_share(times.traced_ms, times.untraced_ms);
    int failures = 0;
    for (const double s : sums) {
      if (std::abs(s - 1.0) > kPhaseSumTol) {
        std::cerr << "RECONCILE FAILED: EpochStats phases sum to " << s * 100
                  << "% of epoch_seconds (tolerance " << kPhaseSumTol * 100
                  << "%)\n";
        ++failures;
      }
    }
    const ReplayResult r = replay_batches(
        spans, sys->dataset(), *sys->model(), kTrainFanouts,
        training_schedule(sys->dataset(), o.seed, sys->epochs_trained() - 1,
                          z.replay_batches),
        /*train=*/true, nullptr);
    failures += replay_layers(r, true, L);
    L["trace.reconcile_failures"] = failures;
    emit(out.metrics, L);
  }
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  return out;
}

// ---------------------------------------------------------------------------
// infer-products: offline sampled inference through System::test_accuracy.

Outcome run_infer(const Options& o, const Sizes& z, SetupTimer& setup,
                  SpanRecorder& spans) {
  Outcome out;
  out.loader_workers = 1;
  Checks checks;
  const SystemConfig sc = system_config("products-sim", o.seed, 1);
  std::unique_ptr<System> sys;
  std::vector<EpochStats> trained;
  setup.repeat(z.setup_reps, [&] { sys.reset(); }, [&] {
    sys = std::make_unique<System>(
        generate_dataset(dataset_config("products-sim", z.products_scale, o.seed)),
        sc);
    trained = sys->train(z.infer_setup_epochs);
  });
  checks.check(std::isfinite(trained.back().mean_loss) &&
                   trained.back().mean_loss < trained.front().mean_loss,
               "set-up training loss is finite and falls");

  const double warm_acc = sys->test_accuracy();  // untimed warm-up pass
  const OpTimes times = time_ops(
      o, spans, "System::test_accuracy", op_count(o, kOpNominalS),
      [&](int p, bool) {
        checks.check(sys->test_accuracy() == warm_acc,
                     "test accuracy repeats bitwise (pass " +
                         std::to_string(p) + ")");
      });
  checks.check(warm_acc >= z.floor(kInferTestFloor, sys->dataset().num_classes),
               "test accuracy " + std::to_string(warm_acc) + " >= floor");

  if (!o.trace) {
    EndToEnd e;
    e.setup_s = setup.median_s();
    e.p50_ms = median(times.all_ms);
    e.accuracy = warm_acc;
    e.peak_rss_mb = peak_rss_mb();
    emit(out.metrics, e);
  } else {
    Layers L;
    L["train.final_loss"] = trained.back().mean_loss;
    L["trace.overhead_share"] = overhead_share(times.traced_ms, times.untraced_ms);
    // The test split in System::test_accuracy's order and seeds.
    const Dataset& ds = sys->dataset();
    const std::uint64_t eval_seed = sc.seed ^ 0x7e57;
    std::vector<ReplayBatch> batches;
    const auto n = static_cast<std::int64_t>(ds.test_idx.size());
    for (std::int64_t begin = 0;
         begin < n && static_cast<int>(batches.size()) < z.replay_batches;
         begin += kBatch) {
      ReplayBatch rb;
      rb.nodes.assign(ds.test_idx.begin() + begin,
                      ds.test_idx.begin() + std::min(n, begin + kBatch));
      rb.seed = eval_seed + static_cast<std::uint64_t>(begin) + 1;
      batches.push_back(std::move(rb));
    }
    const ReplayResult r = replay_batches(spans, ds, *sys->model(), kInferFanouts,
                                          batches, /*train=*/false, nullptr);
    L["trace.reconcile_failures"] = replay_layers(r, false, L);
    L["device.dma_gbps"] = r.dma_gbps;
    emit(out.metrics, L);
  }
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  return out;
}

// ---------------------------------------------------------------------------
// serve-arxiv: an open-loop InferenceServer.

struct RequestRecord {
  Clock::time_point due, submit, done;
  serve::Response response;
};

/// Open loop: request i is due at t0 + i / rate and is sent then, late or
/// not. Program tracing turns on from request `trace_from` (-1: never).
std::vector<RequestRecord> run_open_loop(
    serve::InferenceServer& server,
    const std::vector<std::vector<NodeId>>& requests, double rate,
    std::int64_t trace_from = -1) {
  const std::size_t n = requests.size();
  std::vector<RequestRecord> records(n);
  std::vector<std::future<serve::Response>> futures(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<std::int64_t>(i) == trace_from) program_tracing(true);
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    records[i].due = due;
    records[i].submit = Clock::now();
    futures[i] = server.submit(requests[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    records[i].response = futures[i].get();
    records[i].done =
        records[i].submit + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::micro>(
                                    records[i].response.total_us));
  }
  program_tracing(false);
  return records;
}

bool response_valid(const RequestRecord& r, std::size_t nodes,
                    std::int64_t classes) {
  if (!r.response.ok() || r.response.predictions.size() != nodes) return false;
  return std::all_of(r.response.predictions.begin(),
                     r.response.predictions.end(),
                     [&](std::int64_t p) { return p >= 0 && p < classes; });
}

/// Latency of a request from its due time: generator lateness plus the
/// server's admission-to-response time.
double latency_ms(const RequestRecord& r) {
  return seconds_between(r.due, r.done) * 1e3;
}

/// Closed loop from one thread: `outstanding` requests stay in flight, the
/// next is sent as soon as the oldest completes. Returns successful
/// requests per second; counts the others in `failed`.
double run_closed_loop(serve::InferenceServer& server,
                       const std::vector<std::vector<NodeId>>& requests,
                       std::size_t outstanding, std::int64_t& failed) {
  std::deque<std::future<serve::Response>> inflight;
  std::size_t next = 0;
  std::int64_t ok = 0;
  const auto t0 = Clock::now();
  while (next < requests.size() || !inflight.empty()) {
    while (next < requests.size() && inflight.size() < outstanding) {
      inflight.push_back(server.submit(requests[next++]));
    }
    (inflight.front().get().ok() ? ok : failed) += 1;
    inflight.pop_front();
  }
  return static_cast<double>(ok) / seconds_between(t0, Clock::now());
}

Outcome run_serve(const Options& o, const Sizes& z, SetupTimer& setup,
                  SpanRecorder& spans) {
  Outcome out;
  out.loader_workers = serve::ServeConfig{}.num_prep_workers;
  Checks checks;
  serve::ServeConfig cfg;
  cfg.fanouts = kTrainFanouts;
  cfg.queue_capacity = kServeQueueCapacity;
  cfg.result_cache_capacity = 0;
  cfg.cache_policy = CachePolicyKind::kDegree;
  cfg.cache_percentage = kServeCachePct;
  cfg.feature_dtype = DType::kF16;
  cfg.slo_us = kSloMs * 1000.0;
  cfg.seed = o.seed ^ 0x5eed;

  // The served model is trained in set-up so that served accuracy checks
  // the request -> prediction mapping.
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<DeviceSim> device;
  std::unique_ptr<System> sys;
  const auto teardown = [&] {
    server.reset();
    device.reset();
    sys.reset();
  };
  setup.repeat(z.setup_reps, teardown, [&] {
    sys = std::make_unique<System>(
        generate_dataset(dataset_config("arxiv-sim", z.arxiv_scale, o.seed)),
        system_config("arxiv-sim", o.seed, 1));
    sys->train(kServeSetupEpochs);
    device = std::make_unique<DeviceSim>();
    server = std::make_unique<serve::InferenceServer>(sys->dataset(),
                                                      sys->model(), *device, cfg);
  });
  const Dataset& ds = sys->dataset();
  const std::vector<NodeId> popular = rank_by_degree(ds.graph, ds.test_idx);

  // Warm-up requests (untimed) from their own stream.
  run_open_loop(*server,
                draw_requests(popular, z.warmup_requests, kNodesPerRequest,
                              kZipfS, o.seed ^ 0x3a7e),
                kServeRate);

  // Fixed-rate phase: enough requests for >= 10 beyond p99.
  const std::size_t n = std::max(
      z.min_requests, static_cast<std::size_t>(kServeRate * o.seconds));
  const auto requests =
      draw_requests(popular, n, kNodesPerRequest, kZipfS, o.seed);
  obs::Registry::global().reset();
  const auto trace_from =
      o.trace ? static_cast<std::int64_t>(n / 2) : std::int64_t{-1};
  const int phase = spans.begin("serve.fixed_rate");
  const std::vector<RequestRecord> records =
      run_open_loop(*server, requests, kServeRate, trace_from);
  spans.end(phase);
  const serve::ServeStats stats = server->stats();
  const double wire_mb_per_request =
      static_cast<double>(device->dma().bytes_transferred()) / 1e6 /
      static_cast<double>(n + z.warmup_requests);
  const double dma_gbps = device->dma().achieved_gb_per_s();

  std::map<NodeId, std::int64_t> first_prediction;
  for (std::size_t i = 0; i < n; ++i) {
    const bool valid = response_valid(records[i], requests[i].size(), ds.num_classes);
    checks.check(valid, "request " + std::to_string(i) + " served kOk (" +
                            serve::to_string(records[i].response.status) +
                            ") with in-range predictions");
    if (!valid) continue;
    for (std::size_t k = 0; k < requests[i].size(); ++k) {
      first_prediction.emplace(requests[i][k], records[i].response.predictions[k]);
    }
  }
  std::int64_t hits = 0;
  const std::int64_t* labels = ds.labels.data<std::int64_t>();
  for (const auto& [node, pred] : first_prediction) hits += (labels[node] == pred);
  const double accuracy =
      first_prediction.empty()
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(first_prediction.size());
  checks.check(accuracy >= z.floor(kServeAccFloor, ds.num_classes),
               "served accuracy " + std::to_string(accuracy) + " >= floor");
  std::vector<double> latencies;
  std::int64_t fixed_failed = 0;
  for (const RequestRecord& r : records) {
    if (r.response.ok()) {
      latencies.push_back(latency_ms(r));
    } else {
      ++fixed_failed;
    }
  }

  if (!o.trace) {
    EndToEnd e;
    e.setup_s = setup.median_s();
    e.p50_ms = median(latencies);
    e.accuracy = accuracy;
    e.peak_rss_mb = peak_rss_mb();
    emit(out.metrics, e);
  } else {
    Layers L;
    std::vector<double> queue, service, lag, traced_lat, untraced_lat;
    for (std::size_t i = 0; i < n; ++i) {
      const RequestRecord& r = records[i];
      const auto id = static_cast<std::int64_t>(i);
      const double due = spans.to_us(r.due), submit = spans.to_us(r.submit);
      const double closed = submit + r.response.queue_us;
      const double done = spans.to_us(r.done);
      const int rq = spans.add("request", id, due, done, phase);
      spans.add("generator.lag", id, due, submit, rq);
      spans.add("serve.queue", id, submit, closed, rq);
      spans.add("serve.service", id, closed, done, rq);
      lag.push_back((submit - due) / 1000.0);
      if (!r.response.ok()) continue;
      (id >= trace_from ? traced_lat : untraced_lat).push_back(latency_ms(r));
      if (id >= trace_from) {
        queue.push_back(r.response.queue_us / 1000.0);
        service.push_back((r.response.total_us - r.response.queue_us) / 1000.0);
      }
    }
    L["serve.queue_ms"] = median(queue);
    L["serve.service_ms"] = median(service);
    L["serve.batch_nodes"] =
        stats.batches > 0 ? static_cast<double>(stats.completed * kNodesPerRequest) /
                                static_cast<double>(stats.batches)
                          : 0.0;
    L["serve.gen_lag_ms"] = tail(lag);
    L["serve.p90_ms"] = quantile(latencies, 0.9);
    L["serve.p99_ms"] = tail(latencies);
    // Failed requests miss the SLO too.
    L["serve.slo_miss_share"] =
        static_cast<double>(fixed_failed +
                            std::count_if(latencies.begin(), latencies.end(),
                                          [](double ms) { return ms > kSloMs; })) /
        static_cast<double>(n);
    L["serve.failed"] = static_cast<double>(fixed_failed);
    L["prep.cache_hit_rate"] = stats.feature_cache_hit_rate;
    L["prep.wire_mb"] = wire_mb_per_request;
    L["device.dma_gbps"] = dma_gbps;
    L["trace.overhead_share"] = overhead_share(traced_lat, untraced_lat);
    // Saturation throughput: the median of kSaturationRounds closed-loop
    // rounds, each from its own request stream.
    std::int64_t saturation_failed = 0;
    std::vector<double> rounds;
    for (int r = 0; r < kSaturationRounds; ++r) {
      const int sp = spans.begin("serve.saturation", r);
      rounds.push_back(run_closed_loop(
          *server,
          draw_requests(popular, z.saturation_requests, kNodesPerRequest,
                        kZipfS, o.seed ^ (0xca9a + r)),
          kSaturationOutstanding, saturation_failed));
      spans.end(sp);
    }
    L["serve.saturation_per_s"] = median(rounds) * kNodesPerRequest;
    checks.check(saturation_failed == 0,
                 "every saturation request served kOk");

    // Replay micro-batches of the traced half's requests at the observed
    // micro-batch size, through a degree cache of the server's capacity.
    const auto per_batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(L["serve.batch_nodes"] /
                                                kNodesPerRequest)));
    std::vector<ReplayBatch> batches;
    for (std::size_t i = static_cast<std::size_t>(trace_from);
         i < n && static_cast<int>(batches.size()) < z.replay_batches;
         i += per_batch) {
      ReplayBatch rb;
      for (std::size_t k = i; k < std::min(n, i + per_batch); ++k) {
        rb.nodes.insert(rb.nodes.end(), requests[k].begin(), requests[k].end());
      }
      std::sort(rb.nodes.begin(), rb.nodes.end());
      rb.nodes.erase(std::unique(rb.nodes.begin(), rb.nodes.end()), rb.nodes.end());
      rb.seed = cfg.seed + batches.size();
      batches.push_back(std::move(rb));
    }
    const FeatureCache cache(
        ds, static_cast<std::int64_t>(kServeCachePct *
                                      static_cast<double>(ds.graph.num_nodes())));
    const ReplayResult r = replay_batches(spans, ds, *sys->model(), kTrainFanouts,
                                          batches, /*train=*/false, &cache);
    L["trace.reconcile_failures"] = replay_layers(r, false, L);
    emit(out.metrics, L);
  }
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  return out;
}

// ---------------------------------------------------------------------------
// cluster-arxiv: a 2-node ClusterTrainer.

Outcome run_cluster(const Options& o, const Sizes& z, SetupTimer& setup,
                    SpanRecorder& spans) {
  Outcome out;
  out.loader_workers = 0;
  Checks checks;
  std::unique_ptr<dist::ClusterTrainer> cluster;
  std::unique_ptr<Dataset> ds;
  const auto teardown = [&] {
    cluster.reset();  // borrows *ds
    ds.reset();
  };
  setup.repeat(z.cheap_setup_reps, teardown, [&] {
    ds = std::make_unique<Dataset>(
        generate_dataset(dataset_config("arxiv-sim", z.arxiv_scale, o.seed)));
    dist::ClusterConfig cc;
    cc.partition.num_nodes = kClusterNodes;
    cc.partition.strategy = dist::PartitionStrategy::kGreedy;
    cc.cache.policy = CachePolicyKind::kPresample;
    cc.cache.cache_percentage = kClusterCachePct;
    cc.pipeline_depth = kClusterDepth;
    cc.arch = "sage";
    cc.model.in_channels = ds->feature_dim;
    cc.model.hidden_channels = kHidden;
    cc.model.out_channels = ds->num_classes;
    cc.model.num_layers = kLayers;
    cc.model.seed = o.seed * 31 + 7;
    cc.fanouts = kTrainFanouts;
    cc.batch_size = kBatch;
    cc.seed = o.seed;
    cluster = std::make_unique<dist::ClusterTrainer>(*ds, cc);
  });

  const dist::ClusterEpochResult warm = cluster->train_epoch(0);  // untimed
  checks.check(std::isfinite(warm.mean_loss), "warm-up epoch loss is finite");

  const int epochs = op_count(o, kOpNominalS);
  std::vector<dist::ClusterEpochResult> traced_results;
  dist::ClusterEpochResult last;
  const OpTimes times = time_ops(
      o, spans, "ClusterTrainer::train_epoch", epochs,
      [&](int i, bool traced) {
        last = cluster->train_epoch(i + 1);  // epoch 0 was the warm-up
        if (traced) traced_results.push_back(last);
        checks.check(std::isfinite(last.mean_loss) && cluster->replicas_in_sync(),
                     "epoch " + std::to_string(i + 1) +
                         " loss is finite and replicas are in sync");
      });
  checks.check(last.mean_loss < warm.mean_loss, "cluster training loss falls");
  const double val = spans.scope("evaluate_sampled", -1, [&] {
    return evaluate_sampled(*cluster->replica(0), *ds, ds->val_idx,
                            kInferFanouts, kBatch, o.seed ^ 0x7a1)
        .accuracy;
  });
  checks.check(val >= z.floor(kClusterValFloor, ds->num_classes),
               "replica 0 val accuracy " + std::to_string(val) + " >= floor");

  if (!o.trace) {
    EndToEnd e;
    e.setup_s = setup.median_s();
    e.p50_ms = median(times.all_ms);
    e.accuracy = val;
    e.peak_rss_mb = peak_rss_mb();
    emit(out.metrics, e);
  } else {
    Layers L;
    std::vector<double> remote, wire, hit, imbalance, sim, stall;
    for (const dist::ClusterEpochResult& r : traced_results) {
      remote.push_back(static_cast<double>(r.remote_feature_bytes) / 1e6);
      wire.push_back(static_cast<double>(r.wire_bytes) / 1e6);
      hit.push_back(r.remote_hit_rate());
      const auto [mn, mx] =
          std::minmax_element(r.node_seconds.begin(), r.node_seconds.end());
      imbalance.push_back(*mn > 0 ? *mx / *mn : 0.0);
      sim.push_back(r.sim_epoch_seconds);
      stall.push_back(r.stall_seconds);
    }
    L["dist.remote_mb"] = median(remote);
    L["dist.wire_mb"] = median(wire);
    L["dist.remote_hit_rate"] = median(hit);
    L["dist.node_imbalance"] = median(imbalance);
    L["dist.sim_epoch_s"] = median(sim);
    L["dist.stall_s"] = median(stall);
    L["train.final_loss"] = last.mean_loss;
    L["trace.overhead_share"] = overhead_share(times.traced_ms, times.untraced_ms);
    const ReplayResult r = replay_batches(
        spans, *ds, *cluster->replica(0), kTrainFanouts,
        training_schedule(*ds, o.seed, epochs, z.replay_batches, kClusterNodes),
        /*train=*/true, nullptr);
    L["trace.reconcile_failures"] = replay_layers(r, true, L);
    L["device.dma_gbps"] = r.dma_gbps;
    const std::vector<double> steps = replay_step_ms(r);
    L["train.step_ms"] = median(steps);
    L["train.step_tail_ms"] = tail(steps);
    emit(out.metrics, L);
  }
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"train-arxiv", "infer-products",
                                              "serve-arxiv", "cluster-arxiv"};
  return names;
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const MetricDef& d : kEndToEndDefs) v.push_back(d.name);
    return v;
  }();
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const MetricDef& d : kPerLayerDefs) v.push_back(d.name);
    return v;
  }();
  return names;
}

Outcome run_workload(const Options& o) {
  using Runner = Outcome (*)(const Options&, const Sizes&, SetupTimer&,
                             SpanRecorder&);
  static const std::map<std::string, Runner> runners{
      {"train-arxiv", run_train},
      {"infer-products", run_infer},
      {"serve-arxiv", run_serve},
      {"cluster-arxiv", run_cluster}};
  const auto it = runners.find(o.workload);
  if (it == runners.end()) {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  SetupTimer setup{Clock::now(), {}};
  SpanRecorder spans;
  Outcome out = it->second(o, sizes_for(o), setup, spans);
  if (o.trace) write_trace_outputs(o, spans);
  return out;
}

DatasetConfig dataset_config(const std::string& preset, double scale,
                             std::uint64_t seed) {
  DatasetConfig c = preset_config(preset, scale);
  c.seed = SplitMix64(c.seed ^ (seed * 0x9e3779b97f4a7c15ull)).next();
  return c;
}

std::uint64_t dataset_checksum(const Dataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  const auto mix_vec = [&](const auto& v) {
    mix(v.data(), v.size() * sizeof(v[0]));
  };
  mix_vec(ds.graph.indptr());
  mix_vec(ds.graph.indices());
  mix(ds.features.raw(), ds.features.nbytes());
  mix(ds.labels.raw(), ds.labels.nbytes());
  mix_vec(ds.train_idx);
  mix_vec(ds.val_idx);
  mix_vec(ds.test_idx);
  return h;
}

std::vector<std::vector<NodeId>> draw_requests(
    const std::vector<NodeId>& ranked, std::size_t count,
    int nodes_per_request, double zipf_s, std::uint64_t seed) {
  if (ranked.empty()) throw std::invalid_argument("empty population");
  Xoshiro256ss rng(seed);
  std::vector<double> cdf(ranked.size());
  double total = 0;
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }
  std::vector<std::vector<NodeId>> out(count);
  for (auto& req : out) {
    req.reserve(static_cast<std::size_t>(nodes_per_request));
    for (int j = 0; j < nodes_per_request; ++j) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
      const auto k = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      req.push_back(ranked[std::min(k, ranked.size() - 1)]);
    }
  }
  return out;
}

std::vector<NodeId> rank_by_degree(const CsrGraph& graph,
                                   std::vector<NodeId> nodes) {
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return graph.degree(a) > graph.degree(b);
  });
  return nodes;
}

}  // namespace perfbench
