// Graph attention convolution, PyG GATConv semantics. The paper's
// experiments use heads=1 and bias=false (Appendix A Listing 2); multi-head
// attention with concatenated head outputs is supported as the natural
// extension (outputs are [D, heads*out_channels], as in PyG's concat=True).
//
// For a bipartite level and head h:
//   z_e^h   = LeakyReLU(a_l^h . W^h x_src + a_r^h . W^h x_dst, slope)
//   alpha^h = softmax of z^h over the incoming edges of each destination
//   out_v^h = sum_e alpha_e^h (W^h x)_src    (+ implicit self edge: each
//             destination attends over its sampled neighbors and itself)
//
// The edge-softmax-aggregate step is a dedicated autograd node because it
// has no efficient expression in terms of the dense primitives.
#pragma once

#include "nn/linear.h"
#include "sampling/mfg.h"

namespace salient::nn {

/// Custom autograd op for per-head attention scores: h is [N, H*F], att is
/// [H, F]; out[i, hd] = sum_j h[i, hd*F + j] * att[hd, j] -> [N, H]. (A
/// plain matmul cannot express the per-head block structure.)
Variable per_head_score(const Variable& h, const Variable& att,
                        std::int64_t heads);

/// Custom autograd op: h is [S, H*F] (H heads of width F side by side),
/// s_src [S, H] / s_dst [D, H] are per-head score contributions. Computes
/// the per-head attention-weighted aggregation -> [D, H*F] with a
/// per-destination softmax over edge scores z = LeakyReLU(s_src+s_dst).
/// Each destination's edge set includes an implicit self edge.
Variable gat_edge_softmax_aggregate(
    const Variable& h, const Variable& s_src, const Variable& s_dst,
    std::shared_ptr<const std::vector<std::int64_t>> indptr,
    std::shared_ptr<const std::vector<std::int64_t>> indices,
    std::int64_t num_dst, double slope, std::int64_t heads);

class GatConv : public Module {
 public:
  GatConv(std::int64_t in_channels, std::int64_t out_channels,
          bool bias = false, double negative_slope = 0.2,
          std::uint64_t init_seed = 13, std::int64_t heads = 1);

  /// Output is [num_dst, heads * out_channels] (concatenated heads).
  Variable forward(const Variable& x, const MfgLevel& level);

  std::int64_t heads() const { return heads_; }

 private:
  double slope_;
  std::int64_t heads_;
  std::shared_ptr<Linear> lin_;  // shared projection to heads*out
  Variable att_src_;             // [heads, out]
  Variable att_dst_;             // [heads, out]
};

}  // namespace salient::nn
