// Fused GEMM store-phase epilogues (bias / ReLU / dropout).
#pragma once

#include <cstdint>

/// \file
/// \brief Store-phase epilogues fused into the optimized GEMM, plus the
/// counter-based dropout decision they share with ops::dropout_mask_counter
/// and ops::relu_dropout — the codebase's one dropout decision.
///
/// The unfused Linear-forward path costs three extra full-tensor passes
/// after the GEMM: add the bias row, apply ReLU, and multiply by a dropout
/// mask. All three are pure memory-bandwidth — on an activation of M·N
/// floats they move ~8·M·N bytes beyond the GEMM itself. Fusing them into the microkernel's store
/// phase applies the elementwise math while the output tile is still in
/// registers, so the activation is written exactly once and saves no mask:
/// the backward recovers d y/d pre from the output itself
/// (ops::relu_dropout_backward; docs/PERFORMANCE.md, bytes-moved section).
///
/// Determinism: the epilogue is elementwise over the finished accumulator
/// tile, and the dropout decision is a pure hash of (seed, element index) —
/// no sequential RNG stream — so fused results are bitwise identical across
/// pool sizes and chunkings, and bitwise identical to the unfused optimized
/// sequence composed with ops::dropout_mask_counter under the same seed
/// (tests/test_kernels.cpp locks both in).

namespace salient::ops {

/// Which elementwise tail the GEMM store phase applies to each output
/// element `pre = (A·B)[i][j] (+ bias[j])`.
enum class Epilogue : std::uint8_t {
  /// Plain GEMM store: `y = pre` (no bias read).
  kNone = 0,
  /// Bias add only: `y = pre` with `pre` including the bias row.
  kBias = 1,
  /// Bias + ReLU: `y = pre > 0 ? pre : 0`.
  kBiasRelu = 2,
  /// Bias + ReLU + inverted dropout: `y = pre > 0 && keep ? pre/(1-p) : 0`.
  kBiasReluDropout = 3,
};

namespace detail {

/// SplitMix64 finalizer: the stateless mixing function behind the
/// counter-based dropout decision. Full-avalanche, so consecutive element
/// indices decorrelate completely.
inline std::uint64_t epi_mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace detail

/// Map a drop probability `p` in [0, 1) to the 64-bit hash threshold below
/// which an element is dropped. p = 0 maps to 0 (nothing ever dropped).
inline std::uint64_t dropout_drop_threshold(double p) {
  // p < 1, so p * 2^64 < 2^64 and the conversion is exact enough: the
  // quantization error is < 1 part in 2^52 of the probability.
  return static_cast<std::uint64_t>(p * 18446744073709551616.0);
}

/// Counter-based dropout decision for the element at flat index `index`:
/// true when the element is KEPT. Pure function of (seed, index) — the same
/// element gets the same decision whatever thread, chunk, or kernel
/// evaluates it, which is what lets the fused epilogue, ops::relu_dropout and
/// the standalone ops::dropout_mask_counter agree bitwise.
inline bool dropout_keep(std::uint64_t seed, std::int64_t index,
                         std::uint64_t drop_threshold) {
  return detail::epi_mix64(seed ^
                           static_cast<std::uint64_t>(index) *
                               0x9e3779b97f4a7c15ull) >= drop_threshold;
}

}  // namespace salient::ops
