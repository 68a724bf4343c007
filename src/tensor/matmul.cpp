// Dense matrix multiply with runtime kernel selection.
//
// Stands in for the cuBLAS/ATen GEMMs that dominate the paper's GPU training
// phase. Two implementations live behind ops::matmul (see
// tensor/kernel_config.h):
//
//   * reference (SALIENT_KERNEL=ref) — the original cache-blocked i-k-j
//     loop, kept as the ground truth for A/B benchmarks and gradcheck;
//   * optimized (default) — a register-blocked microkernel over packed
//     panels (tensor/gemm_kernel.h), parallelized across MR-row panels of C
//     on the kernel pool. Packing keeps every hot loop unit-stride for all
//     trans_a/trans_b combinations (a transposed A packs straight from its
//     stored layout), and the branch-free k loop lets the compiler emit FMA
//     vector code. Small-output, long-K products split K into slices fixed
//     by the shape (detail::gemm_split_k_len).
//
// Determinism: each C element is accumulated in an order fixed by the shape
// alone — ascending k by one thread, or per fixed K slice and then across
// slices in slice order — so the optimized result is bitwise identical
// across runs and pool sizes. It differs from the reference only by
// floating-point association (register tiling, K slices), within a tight
// ULP bound (tests/test_kernels.cpp).
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tensor/gemm_kernel.h"
#include "tensor/kernel_config.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "util/half.h"
#include "util/thread_pool.h"

namespace salient::ops {

namespace {

constexpr std::int64_t kBlockK = 128;
constexpr std::int64_t kBlockJ = 256;

/// Reference: C[M,N] += A[M,K] * B[K,N], all row-major contiguous.
template <typename T>
void gemm_ref(const T* a, const T* b, T* c, std::int64_t m, std::int64_t k,
              std::int64_t n) {
  auto body = [&](std::int64_t i_begin, std::int64_t i_end) {
    for (std::int64_t kk = 0; kk < k; kk += kBlockK) {
      const std::int64_t k_end = std::min(kk + kBlockK, k);
      for (std::int64_t jj = 0; jj < n; jj += kBlockJ) {
        const std::int64_t j_end = std::min(jj + kBlockJ, n);
        for (std::int64_t i = i_begin; i < i_end; ++i) {
          T* crow = c + i * n;
          const T* arow = a + i * k;
          for (std::int64_t p = kk; p < k_end; ++p) {
            const T av = arow[p];
            if (av == T(0)) continue;
            const T* brow = b + p * n;
            for (std::int64_t j = jj; j < j_end; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  };
  // Parallelize across row blocks; small problems stay serial.
  if (m * n * k >= (1 << 20) && kernel_pool().size() > 1) {
    kernel_pool().parallel_for(0, m, body);
  } else {
    body(0, m);
  }
}

template <typename T>
void transpose_into(const T* src, T* out, std::int64_t r, std::int64_t c);

/// Grow-only per-thread buffer. new[] (not std::vector) so growth skips
/// value-initialization: every user overwrites what it reads.
template <typename T>
struct GemmScratch {
  std::unique_ptr<T[]> buf;
  std::size_t cap = 0;
  T* get(std::size_t want) {
    if (cap < want) {
      buf.reset(new T[want]);
      cap = want;
    }
    return buf.get();
  }
};

/// The calling thread's packing scratch for the optimized GEMMs. Reused
/// because a fresh allocation costs a page-fault storm on every call (the
/// packing loops touch each page exactly once), which at MFG sizes is a
/// measurable slice of the whole GEMM. No GEMM calls another, so one buffer
/// per thread is safe even when GEMMs run from pool workers.
template <typename T>
T* gemm_scratch(std::size_t want) {
  thread_local GemmScratch<T> scratch;
  return scratch.get(want);
}

/// Packed-panel sizes of one k block: all NR-wide B column panels, then all
/// MR-row A panels.
template <typename T>
std::size_t gemm_scratch_elems(std::int64_t m, std::int64_t kc,
                               std::int64_t n) {
  using namespace detail;
  return static_cast<std::size_t>(gemm_num_col_panels<T>(n) * kc * kGemmNR<T> +
                                  (m + kGemmMR - 1) / kGemmMR * kc * kGemmMR);
}

/// Pack B rows [kk, kk+kc), columns [j0, j0+NR) of row-major B[K,N] into
/// [kc][NR] order, zero-padded at the right edge.
template <typename T>
void gemm_pack_b(const T* b, std::int64_t n, T* dst, std::int64_t kk,
                 std::int64_t kc, std::int64_t j0) {
  constexpr std::int64_t kNR = detail::kGemmNR<T>;
  const std::int64_t w = std::min(kNR, n - j0);
  for (std::int64_t p = 0; p < kc; ++p) {
    const T* src = b + (kk + p) * n + j0;
    for (std::int64_t cix = 0; cix < w; ++cix) dst[cix] = src[cix];
    for (std::int64_t cix = w; cix < kNR; ++cix) dst[cix] = T(0);
    dst += kNR;
  }
}

/// Pack MR-row panel `ip` of A, k block [kk, kk+kc): A is row-major [M,K],
/// or stored transposed as [K,M] when `a_trans`.
template <typename T>
void gemm_pack_a_panel(const T* a, bool a_trans, std::int64_t m,
                       std::int64_t k, T* dst, std::int64_t ip,
                       std::int64_t kk, std::int64_t kc) {
  using namespace detail;
  const std::int64_t i0 = ip * kGemmMR;
  const std::int64_t h = std::min(kGemmMR, m - i0);
  if (a_trans) {
    gemm_pack_a_trans(a, m, dst, i0, h, kk, kc);
  } else {
    gemm_pack_a(a, k, dst, i0, h, kk, kc);
  }
}

/// C[M,N] = A[:, k0:k1] * B[k0:k1, :] with packed panels and the
/// register-tiled microkernel, parallel over MR-row panels of C. A is
/// row-major [M,K], or stored transposed as [K,M] when `a_trans`: its panels
/// then pack straight from that layout.
///
/// Loop order is GotoBLAS-style: the k dimension is processed in kKC-sized
/// blocks; within a block each thread walks column panels in the outer loop
/// and its row panels in the inner loop, so the 32 KiB B panel it is
/// multiplying stays hot in L1 while the (smaller) A panels stream through.
/// The first cut of this kernel used the opposite order — every row panel
/// swept all of packed B — and was L2-bandwidth-bound at ~20% of FMA peak.
///
/// Determinism: C is partitioned into MR-row panels, each owned by exactly
/// one thread, and every element accumulates in ascending-k order (the
/// first k block stores, later ones add), so the result is bitwise
/// identical across runs and pool sizes, and when called from inside a pool
/// job, where every parallel_for_n runs serially.
template <typename T>
void gemm_opt_k_range(const T* a, bool a_trans, const T* b, T* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      std::int64_t k0, std::int64_t k1) {
  using namespace detail;
  constexpr std::int64_t kNR = kGemmNR<T>;
  const std::int64_t panels = gemm_num_col_panels<T>(n);
  const std::int64_t row_panels = (m + kGemmMR - 1) / kGemmMR;
  const std::int64_t kc_max = std::min(kGemmKC, k1 - k0);
  T* const b_packed = gemm_scratch<T>(gemm_scratch_elems<T>(m, kc_max, n));
  T* const a_packed = b_packed + panels * kc_max * kNR;

  for (std::int64_t kk = k0; kk < k1; kk += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k1 - kk);
    parallel_for_n(panels, kc * n, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t jp = pb; jp < pe; ++jp) {
        gemm_pack_b(b, n, b_packed + jp * kc * kNR, kk, kc, jp * kNR);
      }
    });
    parallel_for_n(row_panels, m * kc, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t ip = pb; ip < pe; ++ip) {
        gemm_pack_a_panel(a, a_trans, m, k, a_packed + ip * kc * kGemmMR, ip,
                          kk, kc);
      }
    });
    parallel_for_n(row_panels, m * n * kc,
                   [&](std::int64_t pb, std::int64_t pe) {
                     for (std::int64_t jp = 0; jp < panels; ++jp) {
                       const std::int64_t j0 = jp * kNR;
                       const std::int64_t w = std::min(kNR, n - j0);
                       const T* bp = b_packed + jp * kc * kNR;
                       for (std::int64_t ip = pb; ip < pe; ++ip) {
                         const std::int64_t i0 = ip * kGemmMR;
                         const std::int64_t h = std::min(kGemmMR, m - i0);
                         gemm_microkernel(
                             a_packed + ip * kc * kGemmMR, bp, kc, c,
                             n, i0, h, j0, w, kk != k0);
                       }
                     }
                   });
  }
}

/// Optimized GEMM: one gemm_opt_k_range over all of K, or split-K for the
/// small-output, long-K shapes detail::gemm_split_k_len picks. Split-K runs
/// the pool over K slices instead of row panels: each slice is one task
/// computing its whole range serially into its own partial (slice 0 into C
/// itself), and the partials are then added to C in slice order. A slice's
/// partial and the order of the final sum depend only on the shape, never on
/// which thread ran which slice, so the result stays bitwise identical
/// across runs and pool sizes.
template <typename T>
void gemm_opt(const T* a, bool a_trans, const T* b, T* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  const std::int64_t len = detail::gemm_split_k_len(m, k, n);
  if (len >= k) {
    gemm_opt_k_range(a, a_trans, b, c, m, k, n, 0, k);
    return;
  }
  const std::int64_t slices = (k + len - 1) / len;
  const std::int64_t mn = m * n;
  // Its own buffer: the caller runs a chunk of slices itself, and those
  // use the caller's packing scratch. gemm_split_k_len bounds its size.
  thread_local GemmScratch<T> partial_scratch;
  T* const partials =
      partial_scratch.get(static_cast<std::size_t>((slices - 1) * mn));
  parallel_for_n(slices, mn * k, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t s = sb; s < se; ++s) {
      gemm_opt_k_range(a, a_trans, b, s == 0 ? c : partials + (s - 1) * mn,
                       m, k, n, s * len, std::min(k, (s + 1) * len));
    }
  });
  parallel_for_n(
      m, mn * slices,
      [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t s = 1; s < slices; ++s) {
          const T* part = partials + (s - 1) * mn;
          for (std::int64_t e = ib * n; e < ie * n; ++e) c[e] += part[e];
        }
      },
      GrainClass::kMemoryBound);
}

/// gemm_opt with a fused store-phase epilogue: identical packing, loop
/// order, and accumulation (so the product itself is bitwise equal to
/// gemm_opt's), but the final k block routes through gemm_microkernel_epi,
/// which applies bias/ReLU/dropout to each finished tile while it is still
/// on-core and streams out the combined backward mask. Earlier k blocks use
/// the plain microkernel — the epilogue must see the completed sum, so it
/// can only run once per output element.
template <typename T>
void gemm_opt_epi(const T* a, const T* b, T* c, std::int64_t m, std::int64_t k,
                  std::int64_t n, const detail::GemmEpilogue<T>& epi) {
  using namespace detail;
  constexpr std::int64_t kNR = kGemmNR<T>;
  const std::int64_t panels = gemm_num_col_panels<T>(n);
  const std::int64_t row_panels = (m + kGemmMR - 1) / kGemmMR;
  const std::int64_t kc_max = std::min(kGemmKC, k);
  T* const b_packed = gemm_scratch<T>(gemm_scratch_elems<T>(m, kc_max, n));
  T* const a_packed = b_packed + panels * kc_max * kNR;

  for (std::int64_t kk = 0; kk < k; kk += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - kk);
    const bool last_block = kk + kc == k;
    parallel_for_n(panels, kc * n, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t jp = pb; jp < pe; ++jp) {
        gemm_pack_b(b, n, b_packed + jp * kc * kNR, kk, kc, jp * kNR);
      }
    });
    parallel_for_n(row_panels, m * kc, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t ip = pb; ip < pe; ++ip) {
        gemm_pack_a_panel(a, false, m, k, a_packed + ip * kc * kGemmMR, ip,
                          kk, kc);
      }
    });
    parallel_for_n(row_panels, m * n * kc,
                   [&](std::int64_t pb, std::int64_t pe) {
                     for (std::int64_t jp = 0; jp < panels; ++jp) {
                       const std::int64_t j0 = jp * kNR;
                       const std::int64_t w = std::min(kNR, n - j0);
                       const T* bp = b_packed + jp * kc * kNR;
                       for (std::int64_t ip = pb; ip < pe; ++ip) {
                         const std::int64_t i0 = ip * kGemmMR;
                         const std::int64_t h = std::min(kGemmMR, m - i0);
                         if (last_block) {
                           gemm_microkernel_epi(a_packed + ip * kc * kGemmMR,
                                                bp, kc, c, n, i0, h, j0, w,
                                                kk != 0, epi);
                         } else {
                           gemm_microkernel(a_packed + ip * kc * kGemmMR, bp,
                                            kc, c, n, i0, h, j0, w, kk != 0);
                         }
                       }
                     }
                   });
  }
}

/// Mixed-precision gemm_opt: operands are read through row loaders that
/// decompress a contiguous run of elements straight into the packing scratch
/// ([kc][MR] for A via a small row-major staging tile, [kc][NR] for B), so an
/// F32 copy of a compressed operand never materializes on this path. A row
/// loader has signature `void(row, k0, len, float* dst)` and writes `len`
/// decompressed elements of the given source row starting at column `k0`.
///
/// Loop order, panel ownership, and accumulation order are identical to
/// gemm_opt, so the result is bitwise reproducible across runs and pool
/// sizes — and bitwise identical to up-converting the operand to F32 first
/// and calling gemm_opt, because f16 -> f32 (and the affine int8
/// dequantization) yield the same f32 values either way.
template <typename ARowFn, typename BRowFn>
void gemm_opt_loaded(const ARowFn& arow, const BRowFn& brow, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t n) {
  using namespace detail;
  using T = float;
  constexpr std::int64_t kNR = kGemmNR<T>;
  const std::int64_t panels = gemm_num_col_panels<T>(n);
  const std::int64_t row_panels = (m + kGemmMR - 1) / kGemmMR;
  const std::int64_t kc_max = std::min(kGemmKC, k);
  T* const b_packed = gemm_scratch<T>(gemm_scratch_elems<T>(m, kc_max, n));
  T* const a_packed = b_packed + panels * kc_max * kNR;

  for (std::int64_t kk = 0; kk < k; kk += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - kk);
    parallel_for_n(panels, kc * n, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t jp = pb; jp < pe; ++jp) {
        const std::int64_t j0 = jp * kNR;
        const std::int64_t w = std::min(kNR, n - j0);
        T* dst = b_packed + jp * kc * kNR;
        for (std::int64_t p = 0; p < kc; ++p) {
          brow(kk + p, j0, w, dst);
          for (std::int64_t cix = w; cix < kNR; ++cix) dst[cix] = T(0);
          dst += kNR;
        }
      }
    });
    parallel_for_n(row_panels, m * kc, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t ip = pb; ip < pe; ++ip) {
        const std::int64_t i0 = ip * kGemmMR;
        const std::int64_t h = std::min(kGemmMR, m - i0);
        // Decompress each source row's kc-long segment contiguously (bulk
        // converters want unit stride), then transpose the tiny tile into
        // the [kc][MR] panel layout.
        T stage[kGemmMR][kGemmKC];
        for (std::int64_t r = 0; r < h; ++r) arow(i0 + r, kk, kc, stage[r]);
        T* packed = a_packed + ip * kc * kGemmMR;
        for (std::int64_t p = 0; p < kc; ++p) {
          T* dst = packed + p * kGemmMR;
          for (std::int64_t r = 0; r < h; ++r) dst[r] = stage[r][p];
          for (std::int64_t r = h; r < kGemmMR; ++r) dst[r] = T(0);
        }
      }
    });
    parallel_for_n(row_panels, m * n * kc,
                   [&](std::int64_t pb, std::int64_t pe) {
                     for (std::int64_t jp = 0; jp < panels; ++jp) {
                       const std::int64_t j0 = jp * kNR;
                       const std::int64_t w = std::min(kNR, n - j0);
                       const T* bp = b_packed + jp * kc * kNR;
                       for (std::int64_t ip = pb; ip < pe; ++ip) {
                         const std::int64_t i0 = ip * kGemmMR;
                         const std::int64_t h = std::min(kGemmMR, m - i0);
                         gemm_microkernel(
                             a_packed + ip * kc * kGemmMR, bp, kc, c,
                             n, i0, h, j0, w, kk != 0);
                       }
                     }
                   });
  }
}

/// Bulk-convert an f16 matrix to a freshly allocated f32 tensor (cold path:
/// the reference kernel and transposed mixed operands).
Tensor half_matrix_to_f32(const Tensor& a) {
  Tensor out(a.shape(), DType::kF32);
  half_to_float_n(a.data<Half>(), out.data<float>(),
                  static_cast<std::size_t>(a.numel()));
  return out;
}

/// Mixed f16/f32 matmul: either operand (or both) may be kF16; the result is
/// kF32. Untransposed f16 operands are decompressed inside the packing stage
/// by gemm_opt_loaded; transposed ones (backward-pass shapes, not the
/// feature hot path) are materialized as f32 first, exactly like
/// matmul_typed's transpose staging.
Tensor matmul_mixed(const Tensor& a, const Tensor& b, bool trans_a,
                    bool trans_b) {
  const std::int64_t m = trans_a ? a.size(1) : a.size(0);
  const std::int64_t k = trans_a ? a.size(0) : a.size(1);
  const std::int64_t kb = trans_b ? b.size(1) : b.size(0);
  const std::int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb) {
    throw std::runtime_error("matmul: inner dimension mismatch: " + a.str() +
                             " x " + b.str());
  }
  Tensor out({m, n}, DType::kF32);

  // Resolve each operand to either a raw f16 row source or an f32 one
  // (materializing a converted/transposed copy when needed).
  const Half* a16 = nullptr;
  const float* a32 = nullptr;
  std::vector<float> a_stage;
  if (a.dtype() == DType::kF16 && !trans_a) {
    a16 = a.data<Half>();
  } else {
    Tensor af = a.dtype() == DType::kF16 ? half_matrix_to_f32(a) : a;
    if (trans_a) {
      a_stage.resize(static_cast<std::size_t>(m) * k);
      transpose_into(af.data<float>(), a_stage.data(), a.size(0), a.size(1));
      a32 = a_stage.data();
    } else if (a.dtype() == DType::kF16) {
      a_stage.assign(af.data<float>(), af.data<float>() + af.numel());
      a32 = a_stage.data();
    } else {
      a32 = a.data<float>();
    }
  }
  const Half* b16 = nullptr;
  const float* b32 = nullptr;
  std::vector<float> b_stage;
  if (b.dtype() == DType::kF16 && !trans_b) {
    b16 = b.data<Half>();
  } else {
    Tensor bf = b.dtype() == DType::kF16 ? half_matrix_to_f32(b) : b;
    if (trans_b) {
      b_stage.resize(static_cast<std::size_t>(k) * n);
      transpose_into(bf.data<float>(), b_stage.data(), b.size(0), b.size(1));
      b32 = b_stage.data();
    } else if (b.dtype() == DType::kF16) {
      b_stage.assign(bf.data<float>(), bf.data<float>() + bf.numel());
      b32 = b_stage.data();
    } else {
      b32 = b.data<float>();
    }
  }

  if (kernel_kind() == KernelKind::kRef) {
    // Reference: materialize f32 copies and run the ground-truth loop.
    std::vector<float> a_ref, b_ref;
    const float* pa = a32;
    const float* pb = b32;
    if (a16 != nullptr) {
      a_ref.resize(static_cast<std::size_t>(m) * k);
      half_to_float_n(a16, a_ref.data(), a_ref.size());
      pa = a_ref.data();
    }
    if (b16 != nullptr) {
      b_ref.resize(static_cast<std::size_t>(k) * n);
      half_to_float_n(b16, b_ref.data(), b_ref.size());
      pb = b_ref.data();
    }
    gemm_ref(pa, pb, out.data<float>(), m, k, n);
    return out;
  }

  auto a_f32row = [a32, k](std::int64_t i, std::int64_t k0, std::int64_t len,
                           float* dst) {
    std::memcpy(dst, a32 + i * k + k0, static_cast<std::size_t>(len) *
                                           sizeof(float));
  };
  auto a_f16row = [a16, k](std::int64_t i, std::int64_t k0, std::int64_t len,
                           float* dst) {
    half_to_float_n(a16 + i * k + k0, dst, static_cast<std::size_t>(len));
  };
  auto b_f32row = [b32, n](std::int64_t p, std::int64_t j0, std::int64_t len,
                           float* dst) {
    std::memcpy(dst, b32 + p * n + j0, static_cast<std::size_t>(len) *
                                           sizeof(float));
  };
  auto b_f16row = [b16, n](std::int64_t p, std::int64_t j0, std::int64_t len,
                           float* dst) {
    half_to_float_n(b16 + p * n + j0, dst, static_cast<std::size_t>(len));
  };
  float* c = out.data<float>();
  if (a16 != nullptr && b16 != nullptr) {
    gemm_opt_loaded(a_f16row, b_f16row, c, m, k, n);
  } else if (a16 != nullptr) {
    gemm_opt_loaded(a_f16row, b_f32row, c, m, k, n);
  } else if (b16 != nullptr) {
    gemm_opt_loaded(a_f32row, b_f16row, c, m, k, n);
  } else {
    gemm_opt_loaded(a_f32row, b_f32row, c, m, k, n);
  }
  return out;
}

/// Materialize the transpose of a row-major [r, c] matrix into out ([c, r]).
template <typename T>
void transpose_into(const T* src, T* out, std::int64_t r, std::int64_t c) {
  constexpr std::int64_t kTile = 32;
  for (std::int64_t ii = 0; ii < r; ii += kTile) {
    const std::int64_t i_end = std::min(ii + kTile, r);
    for (std::int64_t jj = 0; jj < c; jj += kTile) {
      const std::int64_t j_end = std::min(jj + kTile, c);
      for (std::int64_t i = ii; i < i_end; ++i) {
        for (std::int64_t j = jj; j < j_end; ++j) {
          out[j * r + i] = src[i * c + j];
        }
      }
    }
  }
}

template <typename T>
Tensor matmul_typed(const Tensor& a, const Tensor& b, bool trans_a,
                    bool trans_b) {
  const std::int64_t m = trans_a ? a.size(1) : a.size(0);
  const std::int64_t k = trans_a ? a.size(0) : a.size(1);
  const std::int64_t kb = trans_b ? b.size(1) : b.size(0);
  const std::int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb) {
    throw std::runtime_error("matmul: inner dimension mismatch: " + a.str() +
                             " x " + b.str());
  }
  Tensor out({m, n}, a.dtype());

  const bool ref = kernel_kind() == KernelKind::kRef;
  const T* pa = a.data<T>();
  const T* pb = b.data<T>();
  std::vector<T> a_packed, b_packed;
  // The optimized kernel packs A's panels straight from the transposed
  // layout; only the reference needs A^T materialized.
  if (trans_a && ref) {
    a_packed.resize(static_cast<std::size_t>(m) * k);
    transpose_into(pa, a_packed.data(), a.size(0), a.size(1));
    pa = a_packed.data();
  }
  if (trans_b) {
    b_packed.resize(static_cast<std::size_t>(k) * n);
    transpose_into(pb, b_packed.data(), b.size(0), b.size(1));
    pb = b_packed.data();
  }
  if (ref) {
    gemm_ref(pa, pb, out.data<T>(), m, k, n);
  } else {
    gemm_opt(pa, trans_a, pb, out.data<T>(), m, k, n);
  }
  return out;
}

template <typename T>
Tensor gemm_epilogue_typed(const Tensor& x, const Tensor& w,
                           const Tensor& bias, Epilogue ep, double dropout_p,
                           std::uint64_t seed) {
  const std::int64_t m = x.size(0), k = x.size(1), n = w.size(0);
  if (w.size(1) != k) {
    throw std::runtime_error("gemm_epilogue: inner dimension mismatch: " +
                             x.str() + " x " + w.str() + "^T");
  }
  if (ep != Epilogue::kNone &&
      (bias.dim() != 1 || bias.size(0) != n || bias.dtype() != x.dtype())) {
    throw std::runtime_error("gemm_epilogue: bias must be [N] of x's dtype");
  }
  if (ep == Epilogue::kBiasReluDropout && (dropout_p < 0 || dropout_p >= 1)) {
    throw std::invalid_argument("gemm_epilogue: bad dropout_p");
  }
  Tensor out({m, n}, x.dtype());
  // w is [N,K] (the nn::Linear layout); the packed path wants B row-major
  // [K,N], so materialize the transpose exactly like matmul(trans_b=true).
  std::vector<T> wt(static_cast<std::size_t>(k) * n);
  transpose_into(w.data<T>(), wt.data(), n, k);

  detail::GemmEpilogue<T> epi;
  epi.kind = ep;
  epi.bias = ep != Epilogue::kNone ? bias.data<T>() : nullptr;
  epi.n = n;
  if (ep == Epilogue::kBiasReluDropout) {
    epi.keep_scale = static_cast<T>(1.0 / (1.0 - dropout_p));
    epi.seed = seed;
    epi.drop_threshold = dropout_drop_threshold(dropout_p);
  }

  if (kernel_kind() == KernelKind::kRef) {
    // Reference: ground-truth GEMM, then the same epilogue math applied in
    // one serial elementwise pass (the branch-select forms mirror
    // gemm_microkernel_epi so ref and opt differ only by GEMM association).
    gemm_ref(x.data<T>(), wt.data(), out.data<T>(), m, k, n);
    T* pc = out.data<T>();
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        T pre = pc[i * n + j];
        if (ep != Epilogue::kNone) pre += epi.bias[j];
        switch (ep) {
          case Epilogue::kNone:
          case Epilogue::kBias:
            pc[i * n + j] = pre;
            break;
          case Epilogue::kBiasRelu:
            pc[i * n + j] = pre > T(0) ? pre : T(0);
            break;
          case Epilogue::kBiasReluDropout: {
            const bool keep =
                dropout_keep(epi.seed, i * n + j, epi.drop_threshold);
            const bool pos = pre > T(0);
            pc[i * n + j] = pos && keep ? pre * epi.keep_scale : T(0);
            break;
          }
        }
      }
    }
  } else {
    gemm_opt_epi(x.data<T>(), wt.data(), out.data<T>(), m, k, n, epi);
  }
  return out;
}

}  // namespace

Tensor gemm_epilogue(const Tensor& x, const Tensor& w, const Tensor& bias,
                     Epilogue epilogue, double dropout_p,
                     std::uint64_t seed) {
  if (x.dim() != 2 || w.dim() != 2) {
    throw std::runtime_error("gemm_epilogue: x and w must be 2-D");
  }
  if (x.dtype() != w.dtype()) {
    throw std::runtime_error("gemm_epilogue: dtype mismatch");
  }
  switch (x.dtype()) {
    case DType::kF32:
      return gemm_epilogue_typed<float>(x, w, bias, epilogue, dropout_p,
                                        seed);
    case DType::kF64:
      return gemm_epilogue_typed<double>(x, w, bias, epilogue, dropout_p,
                                         seed);
    default:
      throw std::runtime_error("gemm_epilogue: float tensor required");
  }
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  if (a.dim() != 2 || b.dim() != 2) {
    throw std::runtime_error("matmul: both operands must be 2-D");
  }
  // Mixed precision: any combination of f16/f32 operands runs through the
  // decompress-in-pack path and yields f32 (the first-layer GEMM over a
  // half-precision feature batch, plus its backward shapes).
  const bool a_half = a.dtype() == DType::kF16;
  const bool b_half = b.dtype() == DType::kF16;
  if ((a_half || b_half) &&
      (a_half || a.dtype() == DType::kF32) &&
      (b_half || b.dtype() == DType::kF32)) {
    return matmul_mixed(a, b, trans_a, trans_b);
  }
  if (a.dtype() != b.dtype()) {
    throw std::runtime_error("matmul: dtype mismatch");
  }
  switch (a.dtype()) {
    case DType::kF32:
      return matmul_typed<float>(a, b, trans_a, trans_b);
    case DType::kF64:
      return matmul_typed<double>(a, b, trans_a, trans_b);
    default:
      throw std::runtime_error("matmul: float tensor required");
  }
}

Tensor matmul_compressed(const Tensor& a, const Tensor& a_scale,
                         const Tensor& a_zero, const Tensor& b, bool trans_b) {
  if (a.dim() != 2 || b.dim() != 2) {
    throw std::runtime_error("matmul_compressed: operands must be 2-D");
  }
  if (a.dtype() != DType::kInt8Q) {
    throw std::runtime_error("matmul_compressed: a must be i8q");
  }
  if (b.dtype() != DType::kF32) {
    throw std::runtime_error("matmul_compressed: b must be f32");
  }
  const std::int64_t m = a.size(0);
  const std::int64_t k = a.size(1);
  if (a_scale.dtype() != DType::kF32 || a_zero.dtype() != DType::kF32 ||
      a_scale.numel() != m || a_zero.numel() != m) {
    throw std::runtime_error(
        "matmul_compressed: a_scale/a_zero must be [M] f32");
  }
  const std::int64_t kb = trans_b ? b.size(1) : b.size(0);
  const std::int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb) {
    throw std::runtime_error("matmul_compressed: inner dimension mismatch: " +
                             a.str() + " x " + b.str());
  }
  if (kernel_kind() == KernelKind::kRef) {
    // Reference path: reconstruct the f32 matrix and reuse the ground-truth
    // pipeline (mixed matmul ref falls through to gemm_ref).
    return matmul(dequantize_rows(a, a_scale, a_zero), b, false, trans_b);
  }
  Tensor out({m, n}, DType::kF32);
  const std::int8_t* qa = a.data<std::int8_t>();
  const float* scales = a_scale.data<float>();
  const float* zeros = a_zero.data<float>();
  std::vector<float> b_stage;
  const float* pb = b.data<float>();
  if (trans_b) {
    b_stage.resize(static_cast<std::size_t>(k) * n);
    transpose_into(pb, b_stage.data(), b.size(0), b.size(1));
    pb = b_stage.data();
  }
  auto a_qrow = [qa, scales, zeros, k](std::int64_t i, std::int64_t k0,
                                       std::int64_t len, float* dst) {
    dequantize_row(qa + i * k + k0, len, scales[i], zeros[i], dst);
  };
  auto b_f32row = [pb, n](std::int64_t p, std::int64_t j0, std::int64_t len,
                          float* dst) {
    std::memcpy(dst, pb + p * n + j0,
                static_cast<std::size_t>(len) * sizeof(float));
  };
  gemm_opt_loaded(a_qrow, b_f32row, out.data<float>(), m, k, n);
  return out;
}

}  // namespace salient::ops
