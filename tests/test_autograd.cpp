// Autograd tests: engine mechanics (accumulation, diamond graphs, leaves,
// shared gradients), finite-difference gradient checks for every
// differentiable op, and the backward contract that skipping an unneeded
// input gradient changes no other gradient.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "autograd/functions.h"
#include "autograd/gradcheck.h"
#include "autograd/variable.h"
#include "nn/gat_conv.h"
#include "tensor/ops.h"

namespace salient {
namespace {

namespace ag = autograd;

Variable leaf(std::vector<std::int64_t> shape, std::uint64_t seed,
              double lo = -1, double hi = 1) {
  return Variable(Tensor::uniform(std::move(shape), seed, lo, hi, DType::kF64),
                  /*requires_grad=*/true);
}

TEST(Engine, LeafAccumulatesSeed) {
  Variable x(Tensor::ones({3}, DType::kF64), true);
  x.backward(Tensor::full({3}, 2.0, DType::kF64));
  EXPECT_TRUE(allclose(x.grad(), Tensor::full({3}, 2.0, DType::kF64)));
  // second backward accumulates
  x.backward(Tensor::full({3}, 1.0, DType::kF64));
  EXPECT_TRUE(allclose(x.grad(), Tensor::full({3}, 3.0, DType::kF64)));
  x.zero_grad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(Engine, DiamondGraphSumsBothPaths) {
  // y = x*x + x*x : dy/dx = 4x
  Variable x = leaf({4}, 3);
  Variable a = ag::mul(x, x);
  Variable b = ag::mul(x, x);
  Variable y = ag::add(a, b);
  y.backward(Tensor::ones({4}, DType::kF64));
  Tensor expected = ops::scale(x.data(), 4.0);
  EXPECT_TRUE(allclose(x.grad(), expected, 1e-9, 1e-9));
}

TEST(Engine, ReusedVariableAsBothInputs) {
  // y = x * x (same variable twice in one node): dy/dx = 2x
  Variable x = leaf({5}, 4);
  Variable y = ag::mul(x, x);
  y.backward(Tensor::ones({5}, DType::kF64));
  EXPECT_TRUE(allclose(x.grad(), ops::scale(x.data(), 2.0), 1e-9, 1e-9));
}

TEST(Engine, NoGradInputsProduceConstant) {
  Variable x(Tensor::ones({2}, DType::kF64), false);
  Variable y = ag::scale(x, 3.0);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(y.grad_fn(), nullptr);
}

TEST(Engine, ScalarImplicitSeed) {
  Variable x = leaf({3, 2}, 5);
  Variable loss = ag::nll_loss(ag::log_softmax(x),
                               Tensor::from_vector<std::int64_t>({0, 1, 0},
                                                                 {3}));
  loss.backward();  // implicit seed of 1
  EXPECT_TRUE(x.grad().defined());
  Variable y = ag::add(x, x);
  EXPECT_THROW(y.backward(), std::runtime_error);  // non-scalar
}

// --- gradchecks -------------------------------------------------------------

TEST(Gradcheck, AddSubMulScale) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable s = ag::add(in[0], in[1]);
    s = ag::sub(s, ag::scale(in[1], 0.5));
    s = ag::mul(s, in[0]);
    return ag::nll_loss(ag::log_softmax(s),
                        Tensor::from_vector<std::int64_t>({1, 0}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({2, 3}, 10), leaf({2, 3}, 11)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, MatmulAllTransposes) {
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      auto fn = [ta, tb](const std::vector<Variable>& in) {
        Variable y = ag::matmul(in[0], in[1], ta, tb);
        return ag::nll_loss(ag::log_softmax(y),
                            Tensor::from_vector<std::int64_t>({0, 2, 1},
                                                              {3}));
      };
      Variable a = leaf(ta ? std::vector<std::int64_t>{4, 3}
                           : std::vector<std::int64_t>{3, 4},
                        20 + ta);
      Variable b = leaf(tb ? std::vector<std::int64_t>{5, 4}
                           : std::vector<std::int64_t>{4, 5},
                        22 + tb);
      auto r = ag::gradcheck(fn, {a, b});
      EXPECT_TRUE(r.ok) << "ta=" << ta << " tb=" << tb << ": " << r.message;
    }
  }
}

TEST(Gradcheck, LinearWithBias) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::linear(in[0], in[1], in[2]);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({1, 3}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({2, 3}, 30), leaf({4, 3}, 31),
                              leaf({4}, 32)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, ReluAndLeakyRelu) {
  // Offset inputs away from 0 so finite differences don't cross the kink.
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::relu(in[0]);
    y = ag::leaky_relu(y, 0.2);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 1}, {2}));
  };
  Variable x(Tensor::from_vector<double>(
                 {0.5, -0.7, 1.2, -0.3, 0.9, 2.0}, {2, 3}),
             true);
  auto r = ag::gradcheck(fn, {x});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, LogSoftmaxNll) {
  auto fn = [](const std::vector<Variable>& in) {
    return ag::nll_loss(ag::log_softmax(in[0]),
                        Tensor::from_vector<std::int64_t>({2, 0, 1, 2}, {4}));
  };
  auto r = ag::gradcheck(fn, {leaf({4, 3}, 40, -2, 2)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, NarrowRowsAndConcat) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable top = ag::narrow_rows(in[0], 0, 2);
    Variable both = ag::concat_cols({top, in[1]});
    return ag::nll_loss(ag::log_softmax(both),
                        Tensor::from_vector<std::int64_t>({0, 3}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({4, 2}, 50), leaf({2, 3}, 51)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, SpmmMeanAndSum) {
  auto indptr = std::make_shared<const std::vector<std::int64_t>>(
      std::vector<std::int64_t>{0, 2, 3, 3});
  auto indices = std::make_shared<const std::vector<std::int64_t>>(
      std::vector<std::int64_t>{0, 3, 1});
  for (const bool mean : {true, false}) {
    auto fn = [&, mean](const std::vector<Variable>& in) {
      Variable y = mean ? ag::spmm_mean(indptr, indices, in[0], 3)
                        : ag::spmm_sum(indptr, indices, in[0], 3);
      return ag::nll_loss(ag::log_softmax(y),
                          Tensor::from_vector<std::int64_t>({0, 1, 1}, {3}));
    };
    auto r = ag::gradcheck(fn, {leaf({4, 2}, 60 + mean)});
    EXPECT_TRUE(r.ok) << "mean=" << mean << ": " << r.message;
  }
}

TEST(Gradcheck, BatchNormTrainingAndEval) {
  for (const bool training : {true, false}) {
    Tensor running_mean = Tensor::zeros({3}, DType::kF64);
    Tensor running_var = Tensor::ones({3}, DType::kF64);
    auto fn = [&](const std::vector<Variable>& in) {
      Tensor rm = running_mean.clone();  // keep stats fixed across calls
      Tensor rv = running_var.clone();
      Variable y = ag::batch_norm(in[0], in[1], in[2], rm, rv, training);
      return ag::nll_loss(ag::log_softmax(y),
                          Tensor::from_vector<std::int64_t>({0, 1, 2, 0},
                                                            {4}));
    };
    auto r = ag::gradcheck(fn, {leaf({4, 3}, 70, -2, 2), leaf({3}, 71, 0.5, 1.5),
                                leaf({3}, 72)},
                           1e-5, 1e-5);
    EXPECT_TRUE(r.ok) << "training=" << training << ": " << r.message;
  }
}

TEST(BatchNorm, RunningStatsUpdate) {
  Tensor rm = Tensor::zeros({2}, DType::kF64);
  Tensor rv = Tensor::ones({2}, DType::kF64);
  Variable x(Tensor::from_vector<double>({1, 10, 3, 20}, {2, 2}), false);
  Variable gamma(Tensor::ones({2}, DType::kF64), false);
  Variable beta(Tensor::zeros({2}, DType::kF64), false);
  ag::batch_norm(x, gamma, beta, rm, rv, /*training=*/true, 0.1);
  // batch mean = (2, 15); running = 0.9*0 + 0.1*mean
  EXPECT_NEAR(rm.at<double>(0), 0.2, 1e-12);
  EXPECT_NEAR(rm.at<double>(1), 1.5, 1e-12);
  // batch var (biased) = (1, 25); unbiased (m=2) doubles it
  EXPECT_NEAR(rv.at<double>(0), 0.9 + 0.1 * 2.0, 1e-12);
  EXPECT_NEAR(rv.at<double>(1), 0.9 + 0.1 * 50.0, 1e-12);
}

TEST(Dropout, EvalModeIsIdentityAndTrainScales) {
  Variable x(Tensor::ones({1000}, DType::kF64), true);
  Variable eval_y = ag::dropout(x, 0.5, /*training=*/false, 1);
  EXPECT_TRUE(allclose(eval_y.data(), x.data()));
  Variable train_y = ag::dropout(x, 0.5, /*training=*/true, 1);
  const double mean = ops::mean_all(train_y.data());
  EXPECT_NEAR(mean, 1.0, 0.1);  // inverted dropout preserves expectation
}

TEST(Gradcheck, DropoutMaskChainRule) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::dropout(in[0], 0.4, true, /*seed=*/99);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 1}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({2, 4}, 80)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, ReluDropoutChainRule) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::relu_dropout(in[0], 0.4, true, /*seed=*/99);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 1, 3}, {3}));
  };
  auto r = ag::gradcheck(fn, {leaf({3, 6}, 81)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, LinearActWithDropout) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::linear_act(in[0], in[1], in[2], 0.4, true, /*seed=*/98);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 4, 2}, {3}));
  };
  auto r = ag::gradcheck(fn, {leaf({3, 4}, 83), leaf({6, 4}, 84),
                              leaf({6}, 85)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(ReluDropout, EvalModeAndZeroPAreRelu) {
  for (const DType dt : {DType::kF32, DType::kF64}) {
    Tensor x = Tensor::uniform({64, 33}, 82, -1, 1, dt);
    if (dt == DType::kF32) {
      x.data<float>()[0] = -0.0f;
    } else {
      x.data<double>()[0] = -0.0;
    }
    const Tensor want = ops::relu(x);
    const Variable eval_y = ag::relu_dropout(Variable(x), 0.5, false, 7);
    const Variable zero_p = ag::relu_dropout(Variable(x), 0.0, true, 7);
    EXPECT_EQ(std::memcmp(want.raw(), eval_y.data().raw(), want.nbytes()), 0);
    EXPECT_EQ(std::memcmp(want.raw(), zero_p.data().raw(), want.nbytes()), 0);
    EXPECT_EQ(
        std::memcmp(want.raw(), ag::relu(Variable(x)).data().raw(),
                    want.nbytes()),
        0);
  }
}

// --- skipped and shared gradients -----------------------------------------

using GraphFn = std::function<Variable(const std::vector<Variable>&)>;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.dtype() == b.dtype() && a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.nbytes()) == 0;
}

/// Builds `fn` over f32 `values` twice, once with input `skip` a constant and
/// once with it requiring grad, and backpropagates the same fixed seed. A
/// closure skips the gradient of an input that does not need one; that must
/// leave every other input's gradient bitwise unchanged.
void expect_skip_is_bitwise_neutral(const GraphFn& fn,
                                    const std::vector<Tensor>& values,
                                    std::size_t skip, const std::string& what) {
  std::vector<std::vector<Variable>> runs;
  for (const bool need : {false, true}) {
    std::vector<Variable> in;
    for (std::size_t i = 0; i < values.size(); ++i) {
      in.emplace_back(values[i], i != skip || need);
    }
    Variable y = fn(in);
    y.backward(Tensor::uniform(y.data().shape(), 7, -1, 1));
    runs.push_back(std::move(in));
  }
  EXPECT_FALSE(runs[0][skip].grad().defined()) << what;
  EXPECT_TRUE(runs[1][skip].grad().defined()) << what;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == skip) continue;
    EXPECT_TRUE(bitwise_equal(runs[0][i].grad(), runs[1][i].grad()))
        << what << ": gradient of input " << i << " changed when input "
        << skip << " stopped requiring grad";
  }
}

/// Every input of `fn` in turn is the one that needs no gradient.
void expect_each_skip_is_bitwise_neutral(const GraphFn& fn,
                                         const std::vector<Tensor>& values,
                                         const std::string& what) {
  for (std::size_t skip = 0; skip < values.size(); ++skip) {
    expect_skip_is_bitwise_neutral(fn, values, skip, what);
  }
}

Tensor f32(std::vector<std::int64_t> shape, std::uint64_t seed) {
  return Tensor::uniform(std::move(shape), seed, -1, 1);
}

TEST(SkippedGradients, LinearAndLinearActAreBitwiseNeutral) {
  // 5000 rows also routes the weight gradient through split-K.
  for (const std::int64_t rows : {std::int64_t{37}, std::int64_t{5000}}) {
    const std::vector<Tensor> v{f32({rows, 24}, 100), f32({16, 24}, 101),
                                f32({16}, 102)};
    expect_each_skip_is_bitwise_neutral(
        [](const std::vector<Variable>& in) {
          return ag::linear(in[0], in[1], in[2]);
        },
        v, "linear rows=" + std::to_string(rows));
    expect_each_skip_is_bitwise_neutral(
        [](const std::vector<Variable>& in) {
          return ag::linear(in[0], in[1], Variable());
        },
        {v[0], v[1]}, "linear without bias");
    expect_each_skip_is_bitwise_neutral(
        [](const std::vector<Variable>& in) {
          return ag::linear_act(in[0], in[1], in[2], 0.3, true, 5);
        },
        v, "linear_act rows=" + std::to_string(rows));
  }
}

TEST(LinearAct, MatchesLinearThenReluDropoutBitwise) {
  // The fused epilogue saves no mask; its backward reads the output exactly
  // as relu_dropout's does, so output and every gradient equal the unfused
  // chain bit for bit.
  const Tensor x = f32({301, 24}, 120), w = f32({37, 24}, 121),
               b = f32({37}, 122);
  for (const double p : {0.0, 0.35}) {
    std::vector<std::vector<Variable>> runs;
    std::vector<Tensor> outs;
    for (const bool fused : {true, false}) {
      std::vector<Variable> in{Variable(x, true), Variable(w, true),
                               Variable(b, true)};
      Variable y = fused ? ag::linear_act(in[0], in[1], in[2], p, true, 9)
                         : ag::relu_dropout(ag::linear(in[0], in[1], in[2]),
                                            p, true, 9);
      y.backward(Tensor::uniform(y.data().shape(), 7, -1, 1));
      outs.push_back(y.data());
      runs.push_back(std::move(in));
    }
    EXPECT_TRUE(bitwise_equal(outs[0], outs[1])) << "p=" << p;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(bitwise_equal(runs[0][i].grad(), runs[1][i].grad()))
          << "p=" << p << " input " << i;
    }
  }
}

TEST(SkippedGradients, MatmulMulSubConcatAreBitwiseNeutral) {
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      expect_each_skip_is_bitwise_neutral(
          [ta, tb](const std::vector<Variable>& in) {
            return ag::matmul(in[0], in[1], ta, tb);
          },
          {ta ? f32({20, 13}, 110) : f32({13, 20}, 110),
           tb ? f32({9, 20}, 111) : f32({20, 9}, 111)},
          "matmul ta=" + std::to_string(ta) + " tb=" + std::to_string(tb));
    }
  }
  const std::vector<Tensor> pair{f32({7, 5}, 112), f32({7, 5}, 113)};
  expect_each_skip_is_bitwise_neutral(
      [](const std::vector<Variable>& in) { return ag::mul(in[0], in[1]); },
      pair, "mul");
  expect_each_skip_is_bitwise_neutral(
      [](const std::vector<Variable>& in) { return ag::sub(in[0], in[1]); },
      pair, "sub");
  expect_each_skip_is_bitwise_neutral(
      [](const std::vector<Variable>& in) { return ag::concat_cols(in); },
      {f32({6, 3}, 114), f32({6, 5}, 115), f32({6, 2}, 116)}, "concat_cols");
}

TEST(SkippedGradients, GatNodesAreBitwiseNeutral) {
  constexpr std::int64_t kHeads = 2, kF = 8, kSrc = 30, kDst = 12;
  expect_each_skip_is_bitwise_neutral(
      [](const std::vector<Variable>& in) {
        return nn::per_head_score(in[0], in[1], kHeads);
      },
      {f32({kSrc, kHeads * kF}, 120), f32({kHeads, kF}, 121)},
      "per_head_score");
  auto indptr = std::make_shared<std::vector<std::int64_t>>();
  auto indices = std::make_shared<std::vector<std::int64_t>>();
  indptr->push_back(0);
  for (std::int64_t v = 0; v < kDst; ++v) {
    for (std::int64_t e = 0; e < v % 4; ++e) {
      indices->push_back((v * 7 + e * 5) % kSrc);
    }
    indptr->push_back(static_cast<std::int64_t>(indices->size()));
  }
  expect_each_skip_is_bitwise_neutral(
      [&](const std::vector<Variable>& in) {
        return nn::gat_edge_softmax_aggregate(in[0], in[1], in[2], indptr,
                                              indices, kDst, 0.2, kHeads);
      },
      {f32({kSrc, kHeads * kF}, 122), f32({kSrc, kHeads}, 123),
       f32({kDst, kHeads}, 124)},
      "gat_edge_softmax_aggregate");
}

TEST(SkippedGradients, BatchNormIsBitwiseNeutral) {
  for (const bool training : {true, false}) {
    expect_each_skip_is_bitwise_neutral(
        [training](const std::vector<Variable>& in) {
          Tensor rm = Tensor::zeros({5}, DType::kF32);
          Tensor rv = Tensor::ones({5}, DType::kF32);
          return ag::batch_norm(in[0], in[1], in[2], rm, rv, training);
        },
        {f32({11, 5}, 130), f32({5}, 131), f32({5}, 132)},
        "batch_norm training=" + std::to_string(training));
  }
}

TEST(Engine, SharedGradientSurvivesFanIn) {
  // Add hands one gradient tensor to both producers a and b, and each then
  // receives a second contribution through t. Were a fan-in summed into its
  // slot in place, the shared tensor would corrupt the other producer's
  // gradient. Both operand orders run, so the shared tensor arrives first in
  // one of them whatever the sweep order.
  for (const bool s_first : {true, false}) {
    auto fn = [s_first](const std::vector<Variable>& in) {
      Variable a = ag::mul(in[0], in[1]);
      Variable b = ag::sub(in[0], in[1]);
      Variable s = ag::add(a, b);
      Variable t = ag::add(ag::mul(a, in[0]), ag::mul(b, in[1]));
      Variable y = s_first ? ag::add(s, t) : ag::add(t, s);
      return ag::nll_loss(ag::log_softmax(y),
                          Tensor::from_vector<std::int64_t>({1, 3, 0}, {3}));
    };
    auto r = ag::gradcheck(fn, {leaf({3, 4}, 140), leaf({3, 4}, 141)});
    EXPECT_TRUE(r.ok) << "s_first=" << s_first << ": " << r.message;
  }
}

TEST(BatchNorm, ParameterGradientsKeepPrecisionOverManyRows) {
  // dgamma and dbeta are column sums over every row of an MFG level (22 462
  // rows here). Count-valued features (0..3) under the loss |y|^2 / 2 make
  // the summed terms repeat exactly, so rounding a running f32 sum row by
  // row errs the same way again and again: ~1.6e-4 relative. Summing in
  // double and rounding once keeps f32 within a few ulps of f64.
  constexpr std::int64_t kM = 22462, kN = 64;
  Tensor x = Tensor::uniform({kM, kN}, 150, 0, 4, DType::kF64);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data<double>()[i] = std::floor(x.data<double>()[i]);
  }
  const Tensor gamma = Tensor::uniform({kN}, 151, 0.5, 1.5, DType::kF64);
  const Tensor beta = Tensor::uniform({kN}, 152, 0.5, 1.5, DType::kF64);
  std::vector<Tensor> dgamma, dbeta;
  for (const DType dt : {DType::kF64, DType::kF32}) {
    Tensor rm = Tensor::zeros({kN}, dt);
    Tensor rv = Tensor::ones({kN}, dt);
    Variable vg(gamma.to(dt), true);
    Variable vb(beta.to(dt), true);
    Variable y = ag::batch_norm(Variable(x.to(dt), false), vg, vb, rm, rv,
                                /*training=*/true);
    y.backward(y.data());  // d(|y|^2 / 2)/dy = y
    dgamma.push_back(vg.grad().to(DType::kF64));
    dbeta.push_back(vb.grad().to(DType::kF64));
  }
  // Largest error relative to the largest reference entry.
  auto rel_err = [](const Tensor& got, const Tensor& want) {
    double err = 0, scale = 0;
    for (std::int64_t j = 0; j < want.numel(); ++j) {
      err = std::max(err, std::abs(got.at<double>(j) - want.at<double>(j)));
      scale = std::max(scale, std::abs(want.at<double>(j)));
    }
    return err / scale;
  };
  EXPECT_LT(rel_err(dgamma[1], dgamma[0]), 5e-5);
  EXPECT_LT(rel_err(dbeta[1], dbeta[0]), 5e-5);
}

}  // namespace
}  // namespace salient
