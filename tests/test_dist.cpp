// Ring all-reduce tests: the elementwise mean under various world sizes and
// buffer lengths (TEST_P), bitwise-identical results on every rank, and
// consistency over repeated rounds. The data-parallel training invariants
// built on it (replicas in sync, sharded epochs, learning) live with the
// cluster trainer in test_cluster.cpp.
#include <gtest/gtest.h>

#include <thread>

#include "dist/allreduce.h"

namespace salient {
namespace {

class AllreduceTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(AllreduceTest, ComputesElementwiseMean) {
  const auto [world, n] = GetParam();
  std::vector<std::vector<float>> buffers(static_cast<std::size_t>(world));
  std::vector<std::vector<float>> expected_sum(1, std::vector<float>(n, 0));
  for (int r = 0; r < world; ++r) {
    auto& buf = buffers[static_cast<std::size_t>(r)];
    buf.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<float>((r + 1) * 100 + static_cast<int>(i % 17));
      expected_sum[0][i] += buf[i];
    }
  }
  RingAllreduce ar(world);
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      ar.run(r, buffers[static_cast<std::size_t>(r)]);
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(buffers[static_cast<std::size_t>(r)][i],
                  expected_sum[0][i] / static_cast<float>(world), 1e-3)
          << "rank " << r << " index " << i;
    }
  }
  // all ranks hold bitwise-identical results (required for replica sync)
  for (int r = 1; r < world; ++r) {
    ASSERT_EQ(buffers[static_cast<std::size_t>(r)], buffers[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorldSizesAndLengths, AllreduceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values<std::size_t>(1, 5, 64, 1000)));

TEST(Allreduce, RepeatedRoundsStayConsistent) {
  constexpr int kWorld = 3;
  RingAllreduce ar(kWorld);
  std::vector<std::vector<float>> buffers(kWorld,
                                          std::vector<float>(10, 1.0f));
  for (int round = 0; round < 5; ++round) {
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        ar.run(r, buffers[static_cast<std::size_t>(r)]);
      });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < kWorld; ++r) {
      for (float v : buffers[static_cast<std::size_t>(r)]) {
        ASSERT_FLOAT_EQ(v, 1.0f);  // mean of equal values is unchanged
      }
    }
  }
}

}  // namespace
}  // namespace salient
