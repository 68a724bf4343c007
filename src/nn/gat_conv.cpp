#include "nn/gat_conv.h"

#include <cmath>
#include <vector>

#include "autograd/functions.h"

namespace salient::nn {

Variable per_head_score(const Variable& h, const Variable& att,
                        std::int64_t heads) {
  const Tensor th = h.data();
  const Tensor tatt = att.data();
  const std::int64_t n = th.size(0);
  const std::int64_t f = tatt.size(1);
  auto forward = [&](auto zero) {
    using T = decltype(zero);
    Tensor out({n, heads}, th.dtype());
    const T* ph = th.data<T>();
    const T* pa = tatt.data<T>();
    T* po = out.data<T>();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t hd = 0; hd < heads; ++hd) {
        double s = 0;
        for (std::int64_t j = 0; j < f; ++j) {
          s += double(ph[i * heads * f + hd * f + j]) *
               double(pa[hd * f + j]);
        }
        po[i * heads + hd] = static_cast<T>(s);
      }
    }
    return out;
  };
  Tensor out = th.dtype() == DType::kF32 ? forward(0.0f) : forward(0.0);
  return make_op_result(
      "PerHeadScore", std::move(out), {h, att},
      [th, tatt, heads, n, f](const Tensor& g, const std::vector<bool>& need) {
        const bool need_h = need[0], need_att = need[1];
        auto backward = [&](auto zero) {
          using T = decltype(zero);
          Tensor dh, datt;
          if (need_h) dh = Tensor(th.shape(), th.dtype());
          if (need_att) datt = Tensor(tatt.shape(), tatt.dtype());
          const T* ph = th.data<T>();
          const T* pa = tatt.data<T>();
          const T* pg = g.data<T>();
          T* pdh = need_h ? dh.data<T>() : nullptr;
          T* pda = need_att ? datt.data<T>() : nullptr;
          for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t hd = 0; hd < heads; ++hd) {
              const double gv = double(pg[i * heads + hd]);
              for (std::int64_t j = 0; j < f; ++j) {
                if (need_h) {
                  pdh[i * heads * f + hd * f + j] =
                      static_cast<T>(gv * double(pa[hd * f + j]));
                }
                if (need_att) {
                  pda[hd * f + j] += static_cast<T>(
                      gv * double(ph[i * heads * f + hd * f + j]));
                }
              }
            }
          }
          return std::vector<Tensor>{std::move(dh), std::move(datt)};
        };
        return g.dtype() == DType::kF32 ? backward(0.0f) : backward(0.0);
      });
}

namespace {

/// Saved forward state for the custom backward. Per destination row the edge
/// order is [sampled edges..., self edge]; alpha/dmask are flat arrays of
/// size (num_edges + num_dst) * heads.
template <typename T>
struct GatCtx {
  std::shared_ptr<const std::vector<std::int64_t>> indptr;
  std::shared_ptr<const std::vector<std::int64_t>> indices;
  std::int64_t num_dst = 0;
  std::int64_t heads = 1;
  std::vector<T> alpha;  // softmax weights per (edge|self) x head
  std::vector<T> dmask;  // LeakyReLU'(z_pre) per (edge|self) x head
  Tensor h;              // saved input projections [S, H*F]
};

template <typename T>
Tensor gat_forward(const Tensor& h, const Tensor& s_src, const Tensor& s_dst,
                   GatCtx<T>& ctx, double slope) {
  const auto& indptr = *ctx.indptr;
  const auto& indices = *ctx.indices;
  const std::int64_t d_count = ctx.num_dst;
  const std::int64_t heads = ctx.heads;
  const std::int64_t f = h.size(1) / heads;
  const T* ph = h.data<T>();
  const T* pss = s_src.data<T>();
  const T* psd = s_dst.data<T>();

  const auto num_edges = static_cast<std::int64_t>(indices.size());
  const auto slots = static_cast<std::size_t>((num_edges + d_count) * heads);
  ctx.alpha.assign(slots, T(0));
  ctx.dmask.assign(slots, T(0));

  Tensor out({d_count, heads * f}, h.dtype());
  T* po = out.data<T>();

  for (std::int64_t v = 0; v < d_count; ++v) {
    const std::int64_t b = indptr[static_cast<std::size_t>(v)];
    const std::int64_t e = indptr[static_cast<std::size_t>(v) + 1];
    const std::int64_t m = e - b + 1;  // +1 for the self edge
    for (std::int64_t hd = 0; hd < heads; ++hd) {
      double zmax = -1e300;
      for (std::int64_t k = 0; k < m; ++k) {
        const std::int64_t u =
            (k < m - 1) ? indices[static_cast<std::size_t>(b + k)] : v;
        const std::size_t slot = static_cast<std::size_t>(
            ((k < m - 1) ? (b + k) : (num_edges + v)) * heads + hd);
        const double zpre =
            double(pss[u * heads + hd]) + double(psd[v * heads + hd]);
        const double z = zpre > 0 ? zpre : slope * zpre;
        ctx.alpha[slot] = static_cast<T>(z);  // temporarily store z
        ctx.dmask[slot] = static_cast<T>(zpre > 0 ? 1.0 : slope);
        zmax = std::max(zmax, z);
      }
      double denom = 0;
      for (std::int64_t k = 0; k < m; ++k) {
        const std::size_t slot = static_cast<std::size_t>(
            ((k < m - 1) ? (b + k) : (num_edges + v)) * heads + hd);
        const double w = std::exp(double(ctx.alpha[slot]) - zmax);
        ctx.alpha[slot] = static_cast<T>(w);
        denom += w;
      }
      T* orow = po + v * heads * f + hd * f;
      for (std::int64_t k = 0; k < m; ++k) {
        const std::int64_t u =
            (k < m - 1) ? indices[static_cast<std::size_t>(b + k)] : v;
        const std::size_t slot = static_cast<std::size_t>(
            ((k < m - 1) ? (b + k) : (num_edges + v)) * heads + hd);
        const T a = static_cast<T>(double(ctx.alpha[slot]) / denom);
        ctx.alpha[slot] = a;
        const T* hrow = ph + u * heads * f + hd * f;
        for (std::int64_t j = 0; j < f; ++j) orow[j] += a * hrow[j];
      }
    }
  }
  return out;
}

template <typename T>
std::vector<Tensor> gat_backward(const Tensor& g, const GatCtx<T>& ctx,
                                 std::int64_t num_src,
                                 const std::vector<bool>& need) {
  const auto& indptr = *ctx.indptr;
  const auto& indices = *ctx.indices;
  const std::int64_t d_count = ctx.num_dst;
  const std::int64_t heads = ctx.heads;
  const std::int64_t f = ctx.h.size(1) / heads;
  const T* ph = ctx.h.template data<T>();
  const T* pg = g.data<T>();
  const auto num_edges = static_cast<std::int64_t>(indices.size());

  // The score gradients share the softmax backward; dh needs only alpha.
  const bool need_h = need[0], need_s_src = need[1], need_s_dst = need[2];
  const bool need_scores = need_s_src || need_s_dst;
  Tensor dh, ds_src, ds_dst;
  if (need_h) dh = Tensor({num_src, heads * f}, g.dtype());
  if (need_s_src) ds_src = Tensor({num_src, heads}, g.dtype());
  if (need_s_dst) ds_dst = Tensor({d_count, heads}, g.dtype());
  T* pdh = need_h ? dh.data<T>() : nullptr;
  T* pdss = need_s_src ? ds_src.data<T>() : nullptr;
  T* pdsd = need_s_dst ? ds_dst.data<T>() : nullptr;

  std::vector<double> dalpha;
  for (std::int64_t v = 0; v < d_count; ++v) {
    const std::int64_t b = indptr[static_cast<std::size_t>(v)];
    const std::int64_t e = indptr[static_cast<std::size_t>(v) + 1];
    const std::int64_t m = e - b + 1;
    for (std::int64_t hd = 0; hd < heads; ++hd) {
      const T* grow = pg + v * heads * f + hd * f;
      dalpha.assign(static_cast<std::size_t>(m), 0.0);
      double dot = 0;  // sum_k alpha_k * dalpha_k (softmax backward)
      for (std::int64_t k = 0; k < m; ++k) {
        const std::int64_t u =
            (k < m - 1) ? indices[static_cast<std::size_t>(b + k)] : v;
        const std::size_t slot = static_cast<std::size_t>(
            ((k < m - 1) ? (b + k) : (num_edges + v)) * heads + hd);
        const double a = double(ctx.alpha[slot]);
        if (need_h) {
          T* dhrow = pdh + u * heads * f + hd * f;
          for (std::int64_t j = 0; j < f; ++j) {
            dhrow[j] += static_cast<T>(a * double(grow[j]));
          }
        }
        if (!need_scores) continue;
        const T* hrow = ph + u * heads * f + hd * f;
        double da = 0;
        for (std::int64_t j = 0; j < f; ++j) {
          da += double(grow[j]) * double(hrow[j]);
        }
        dalpha[static_cast<std::size_t>(k)] = da;
        dot += a * da;
      }
      if (!need_scores) continue;
      for (std::int64_t k = 0; k < m; ++k) {
        const std::int64_t u =
            (k < m - 1) ? indices[static_cast<std::size_t>(b + k)] : v;
        const std::size_t slot = static_cast<std::size_t>(
            ((k < m - 1) ? (b + k) : (num_edges + v)) * heads + hd);
        const double a = double(ctx.alpha[slot]);
        const double dz = a * (dalpha[static_cast<std::size_t>(k)] - dot) *
                          double(ctx.dmask[slot]);
        if (need_s_src) pdss[u * heads + hd] += static_cast<T>(dz);
        if (need_s_dst) pdsd[v * heads + hd] += static_cast<T>(dz);
      }
    }
  }
  return {std::move(dh), std::move(ds_src), std::move(ds_dst)};
}

}  // namespace

Variable gat_edge_softmax_aggregate(
    const Variable& h, const Variable& s_src, const Variable& s_dst,
    std::shared_ptr<const std::vector<std::int64_t>> indptr,
    std::shared_ptr<const std::vector<std::int64_t>> indices,
    std::int64_t num_dst, double slope, std::int64_t heads) {
  const std::int64_t num_src = h.data().size(0);
  if (h.data().size(1) % heads != 0 || s_src.data().size(1) != heads ||
      s_dst.data().size(1) != heads) {
    throw std::invalid_argument("gat_edge_softmax_aggregate: head layout");
  }
  auto run = [&](auto zero) {
    using T = decltype(zero);
    auto ctx = std::make_shared<GatCtx<T>>();
    ctx->indptr = indptr;
    ctx->indices = indices;
    ctx->num_dst = num_dst;
    ctx->heads = heads;
    ctx->h = h.data();
    Tensor out =
        gat_forward<T>(h.data(), s_src.data(), s_dst.data(), *ctx, slope);
    return make_op_result("GatAggregate", std::move(out), {h, s_src, s_dst},
                          [ctx, num_src](const Tensor& g,
                                         const std::vector<bool>& need) {
                            return gat_backward<T>(g, *ctx, num_src, need);
                          });
  };
  return h.data().dtype() == DType::kF32 ? run(0.0f) : run(0.0);
}

GatConv::GatConv(std::int64_t in_channels, std::int64_t out_channels,
                 bool bias, double negative_slope, std::uint64_t init_seed,
                 std::int64_t heads)
    : slope_(negative_slope), heads_(heads) {
  if (heads < 1) throw std::invalid_argument("GatConv: heads < 1");
  lin_ = register_module(
      "lin", std::make_shared<Linear>(in_channels, heads * out_channels,
                                      bias, init_seed));
  const double k = 1.0 / std::sqrt(static_cast<double>(out_channels));
  att_src_ = register_parameter(
      "att_src",
      Tensor::uniform({heads, out_channels}, init_seed ^ 0xa1, -k, k));
  att_dst_ = register_parameter(
      "att_dst",
      Tensor::uniform({heads, out_channels}, init_seed ^ 0xa2, -k, k));
}

Variable GatConv::forward(const Variable& x, const MfgLevel& level) {
  Variable h = lin_->forward(x);  // [S, heads*out]
  Variable s_src = per_head_score(h, att_src_, heads_);  // [S, heads]
  Variable h_dst = autograd::narrow_rows(h, 0, level.num_dst);
  Variable s_dst = per_head_score(h_dst, att_dst_, heads_);  // [D, heads]
  return gat_edge_softmax_aggregate(
      h, s_src, s_dst,
      std::shared_ptr<const std::vector<std::int64_t>>(level.indptr),
      std::shared_ptr<const std::vector<std::int64_t>>(level.indices),
      level.num_dst, slope_, heads_);
}

}  // namespace salient::nn
