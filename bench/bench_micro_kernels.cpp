// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// sampler variants (baseline vs SALIENT, and individual design choices),
// ID-map implementations, slicing, half conversion, SpMM, matmul, and the
// lock-free queue. These are the building blocks behind Tables 2-3 and
// Figure 2; run with --benchmark_filter=... to focus.
#include <benchmark/benchmark.h>

#include <numeric>

#include "graph/dataset.h"
#include "prep/slicing.h"
#include "sampling/baseline_sampler.h"
#include "sampling/fast_sampler.h"
#include "sampling/id_map.h"
#include "sampling/parameterized.h"
#include "tensor/kernel_config.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "util/half.h"
#include "util/mpmc_queue.h"
#include "util/thread_pool.h"
#include "util/rng.h"

namespace {

using namespace salient;

const Dataset& bench_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "bench";
    c.num_nodes = 60000;
    c.feature_dim = 100;
    c.num_classes = 16;
    c.avg_degree = 20;
    c.max_degree = 2000;
    c.seed = 99;
    return generate_dataset(c);
  }();
  return ds;
}

std::vector<NodeId> bench_batch(std::size_t n) {
  const auto& ds = bench_dataset();
  std::vector<NodeId> batch(ds.train_idx.begin(),
                            ds.train_idx.begin() +
                                std::min(n, ds.train_idx.size()));
  return batch;
}

void BM_SamplerBaseline(benchmark::State& state) {
  const auto& ds = bench_dataset();
  BaselineSampler sampler(ds.graph, {15, 10, 5});
  const auto batch = bench_batch(256);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Mfg mfg = sampler.sample(batch, ++seed);
    benchmark::DoNotOptimize(mfg.n_ids.data());
    state.counters["edges"] = static_cast<double>(mfg.total_edges());
  }
}
BENCHMARK(BM_SamplerBaseline)->Unit(benchmark::kMillisecond);

void BM_SamplerFast(benchmark::State& state) {
  const auto& ds = bench_dataset();
  FastSampler sampler(ds.graph, {15, 10, 5});
  const auto batch = bench_batch(256);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Mfg mfg = sampler.sample(batch, ++seed);
    benchmark::DoNotOptimize(mfg.n_ids.data());
    state.counters["edges"] = static_cast<double>(mfg.total_edges());
  }
}
BENCHMARK(BM_SamplerFast)->Unit(benchmark::kMillisecond);

void BM_IdMapFlat(benchmark::State& state) {
  Xoshiro256ss rng(5);
  std::vector<NodeId> keys(100000);
  for (auto& k : keys) k = static_cast<NodeId>(bounded_rand(rng, 1000000));
  for (auto _ : state) {
    FlatIdMap map;
    std::vector<NodeId> locals;
    for (const NodeId k : keys) {
      benchmark::DoNotOptimize(map.get_or_insert(k, locals));
    }
  }
}
BENCHMARK(BM_IdMapFlat)->Unit(benchmark::kMillisecond);

void BM_IdMapStd(benchmark::State& state) {
  Xoshiro256ss rng(5);
  std::vector<NodeId> keys(100000);
  for (auto& k : keys) k = static_cast<NodeId>(bounded_rand(rng, 1000000));
  for (auto _ : state) {
    StdIdMap map;
    std::vector<NodeId> locals;
    for (const NodeId k : keys) {
      benchmark::DoNotOptimize(map.get_or_insert(k, locals));
    }
  }
}
BENCHMARK(BM_IdMapStd)->Unit(benchmark::kMillisecond);

void BM_SliceRows(benchmark::State& state) {
  const auto& ds = bench_dataset();
  Xoshiro256ss rng(7);
  std::vector<NodeId> ids(20000);
  for (auto& v : ids) {
    v = static_cast<NodeId>(
        bounded_rand(rng, static_cast<std::uint64_t>(ds.graph.num_nodes())));
  }
  Tensor out({static_cast<std::int64_t>(ids.size()), ds.feature_dim},
             DType::kF16);
  for (auto _ : state) {
    slice_rows_serial(ds.features, ids, out);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.nbytes()));
}
BENCHMARK(BM_SliceRows)->Unit(benchmark::kMillisecond);

void BM_HalfToFloat(benchmark::State& state) {
  std::vector<Half> src(1 << 18);
  std::vector<float> dst(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = float_to_half(static_cast<float>(i) * 0.001f);
  }
  for (auto _ : state) {
    half_to_float_n(src.data(), dst.data(), src.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size() * 2));
}
BENCHMARK(BM_HalfToFloat)->Unit(benchmark::kMillisecond);

void BM_FloatToHalf(benchmark::State& state) {
  std::vector<float> src(1 << 18);
  std::vector<Half> dst(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<float>(i) * 0.001f - 100.0f;
  }
  for (auto _ : state) {
    float_to_half_n(src.data(), dst.data(), src.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size() * 4));
}
BENCHMARK(BM_FloatToHalf)->Unit(benchmark::kMillisecond);

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Tensor a = Tensor::uniform({n, n}, 1, -1, 1);
  Tensor b = Tensor::uniform({n, n}, 2, -1, 1);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Matmul)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SpmmMean(benchmark::State& state) {
  const auto& ds = bench_dataset();
  FastSampler sampler(ds.graph, {15, 10});
  const auto batch = bench_batch(256);
  Mfg mfg = sampler.sample(batch, 3);
  const auto& level = mfg.levels[0];
  Tensor x = Tensor::uniform({level.num_src, 64}, 4, -1, 1);
  for (auto _ : state) {
    Tensor y = ops::spmm_mean(*level.indptr, *level.indices, x,
                              level.num_dst);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_SpmmMean)->Unit(benchmark::kMillisecond);

// --- kernel-layer A/B benchmarks (tensor/kernel_config.h) -------------------
//
// Each benchmark takes Args({opt, threads}): opt selects the reference (0)
// or optimized (1) kernels, threads sizes a private pool the kernels run on.
// Shapes are ogbn-like MFG sizes, matching tools/bench_gate.cpp — use the
// gate for regression checks and these for interactive profiling.

/// Scoped kernel-kind + private-pool override (restored on destruction).
class KernelABGuard {
 public:
  KernelABGuard(bool opt, int threads)
      : saved_(ops::kernel_kind()), pool_(static_cast<std::size_t>(threads)) {
    ops::set_kernel_kind(opt ? ops::KernelKind::kOpt : ops::KernelKind::kRef);
    ops::set_kernel_pool(&pool_);
  }
  ~KernelABGuard() {
    ops::set_kernel_pool(nullptr);
    ops::set_kernel_kind(saved_);
  }

 private:
  ops::KernelKind saved_;
  ThreadPool pool_;
};

#define KERNEL_AB_ARGS                               \
  ->ArgNames({"opt", "threads"})                     \
      ->Args({0, 1})                                 \
      ->Args({1, 1})                                 \
      ->Args({1, 4})                                 \
      ->Args({1, 8})                                 \
      ->Unit(benchmark::kMillisecond)

void BM_GemmKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  Tensor a = Tensor::uniform({512, 128}, 1, -1, 1);
  Tensor b = Tensor::uniform({128, 256}, 2, -1, 1);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * 512 * 128 * 256 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmKernel) KERNEL_AB_ARGS;

/// Shapes shared by the fused-epilogue / compressed-GEMM A/B benchmarks: a
/// hidden-layer Linear forward (x [4096,64] @ w^T [256,64], the
/// tools/bench_gate.cpp fusion-gate shape).
struct LinearFixture {
  Tensor x = Tensor::uniform({4096, 64}, 31, -1, 1);
  Tensor w = Tensor::uniform({256, 64}, 32, -1, 1);
  Tensor bias = Tensor::uniform({256}, 33, -1, 1);
  Tensor x16 = x.to(DType::kF16);
  Tensor xq, scale, zero;
  LinearFixture() { xq = ops::quantize_rows(x, &scale, &zero); }
};

const LinearFixture& linear_fixture() {
  static LinearFixture f;
  return f;
}

void BM_LinearUnfusedKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const auto& f = linear_fixture();
  for (auto _ : state) {
    Tensor h = ops::matmul(f.x, f.w, false, true);
    Tensor hb = ops::add_row_broadcast(h, f.bias);
    Tensor y = ops::relu(hb);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_LinearUnfusedKernel) KERNEL_AB_ARGS;

void BM_LinearFusedKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const auto& f = linear_fixture();
  for (auto _ : state) {
    Tensor y = ops::gemm_epilogue(f.x, f.w, f.bias, ops::Epilogue::kBiasRelu,
                                  0.0, 0);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_LinearFusedKernel) KERNEL_AB_ARGS;

/// A hidden layer's activation tail at train-arxiv's layer-0 output shape
/// ([22040, 64], p = 0.5): relu, the counter dropout mask and a multiply
/// (three passes, two temporaries) against the one-pass ops::relu_dropout.
const Tensor& activation_fixture() {
  static const Tensor x = Tensor::uniform({22040, 64}, 34, -1, 1);
  return x;
}

void BM_ReluDropoutUnfusedKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const Tensor& x = activation_fixture();
  for (auto _ : state) {
    Tensor y = ops::mul(ops::relu(x),
                        ops::dropout_mask_counter(x.shape(), 0.5, 7));
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_ReluDropoutUnfusedKernel) KERNEL_AB_ARGS;

void BM_ReluDropoutFusedKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const Tensor& x = activation_fixture();
  for (auto _ : state) {
    Tensor y = ops::relu_dropout(x, 0.5, 7);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_ReluDropoutFusedKernel) KERNEL_AB_ARGS;

void BM_GemmF16AKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const auto& f = linear_fixture();
  for (auto _ : state) {
    Tensor y = ops::matmul(f.x16, f.w, false, true);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_GemmF16AKernel) KERNEL_AB_ARGS;

void BM_GemmInt8QKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const auto& f = linear_fixture();
  for (auto _ : state) {
    Tensor y = ops::matmul_compressed(f.xq, f.scale, f.zero, f.w, true);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_GemmInt8QKernel) KERNEL_AB_ARGS;

/// MFG-shaped CSR shared by the SpMM kernel benchmarks: one fanout-15 level
/// sampled from the bench dataset (~8k dst, ~20-30k src).
struct SpmmFixture {
  Mfg mfg;
  Tensor x;
  Tensor grad;
  SpmmFixture() {
    const auto& ds = bench_dataset();
    FastSampler sampler(ds.graph, {15});
    mfg = sampler.sample(bench_batch(8192), 11);
    const auto& level = mfg.levels[0];
    x = Tensor::uniform({level.num_src, 128}, 12, -1, 1);
    grad = Tensor::uniform({level.num_dst, 128}, 13, -1, 1);
  }
};

const SpmmFixture& spmm_fixture() {
  static SpmmFixture f;
  return f;
}

void BM_SpmmMeanKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const auto& f = spmm_fixture();
  const auto& level = f.mfg.levels[0];
  for (auto _ : state) {
    Tensor y =
        ops::spmm_mean(*level.indptr, *level.indices, f.x, level.num_dst);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_SpmmMeanKernel) KERNEL_AB_ARGS;

void BM_SpmmMeanBackwardKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const auto& f = spmm_fixture();
  const auto& level = f.mfg.levels[0];
  for (auto _ : state) {
    Tensor gx = ops::spmm_mean_backward(*level.indptr, *level.indices, f.grad,
                                        level.num_src);
    benchmark::DoNotOptimize(gx.raw());
  }
}
BENCHMARK(BM_SpmmMeanBackwardKernel) KERNEL_AB_ARGS;

void BM_SpmmMaxKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  const auto& f = spmm_fixture();
  const auto& level = f.mfg.levels[0];
  for (auto _ : state) {
    Tensor y = ops::spmm_max(*level.indptr, *level.indices, f.x,
                             level.num_dst, nullptr);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_SpmmMaxKernel) KERNEL_AB_ARGS;

void BM_ElementwiseKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  Tensor a = Tensor::uniform({8192, 256}, 21, -1, 1);
  Tensor b = Tensor::uniform({8192, 256}, 22, -1, 1);
  for (auto _ : state) {
    Tensor c = ops::add(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 3 *
                          8192 * 256 * 4);
}
BENCHMARK(BM_ElementwiseKernel) KERNEL_AB_ARGS;

void BM_LogSoftmaxKernel(benchmark::State& state) {
  KernelABGuard guard(state.range(0) != 0, static_cast<int>(state.range(1)));
  Tensor logits = Tensor::uniform({8192, 48}, 23, -4, 4);
  for (auto _ : state) {
    Tensor y = ops::log_softmax_rows(logits);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_LogSoftmaxKernel) KERNEL_AB_ARGS;

void BM_MpmcQueuePingPong(benchmark::State& state) {
  MpmcQueue<int> q(1024);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(q.try_push(i));
    }
    int v;
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(q.try_pop(v));
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_MpmcQueuePingPong);

}  // namespace

BENCHMARK_MAIN();
