// Inference paths (paper §5):
//   * evaluate_sampled — mini-batch inference with neighborhood sampling,
//     reusing the exact training forward (the unification the paper argues
//     for). One-shot sampling per node, like the paper's inference runs.
//     It is the serial oracle for the pipelined path,
//     Trainer::inference_epoch (which System's val/test accuracy runs on):
//     both seed batch b with schedule_mix_seed(seed, b), so at an f16 or
//     f32 wire their accuracies are bitwise equal at any worker count and
//     cache setting. With an i8q wire the pipelined accuracy is over the
//     dequantized rows and may differ.
//   * evaluate_layerwise — full-neighborhood inference computed layer by
//     layer over ALL graph nodes, storing each layer's representations in
//     host memory (the conventional alternative; Table 6's "fanout: all").
// Both return accuracy over the requested node set; predictions can
// optionally be captured for per-node analyses (Figure 3).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/dataset.h"
#include "nn/models.h"

namespace salient {

struct InferenceResult {
  double accuracy = 0;
  /// predicted class per queried node (aligned with the `nodes` argument).
  std::vector<std::int64_t> predictions;
};

/// Mini-batch sampled inference over `nodes`, serially on the calling thread.
/// Batch b holds nodes [b * batch_size, (b + 1) * batch_size) and samples
/// with schedule_mix_seed(seed, b). `fanouts` may differ from the training
/// fanout (Table 6 sweeps it). The model is switched to eval mode.
InferenceResult evaluate_sampled(nn::GnnModel& model, const Dataset& dataset,
                                 std::span<const NodeId> nodes,
                                 std::span<const std::int64_t> fanouts,
                                 std::int64_t batch_size, std::uint64_t seed);

/// Layer-wise full-neighborhood inference. Computes representations for all
/// graph nodes level by level (chunked), then evaluates `nodes`. Requires
/// model.supports_layerwise(). `chunk_size` bounds peak memory per step.
InferenceResult evaluate_layerwise(nn::GnnModel& model, const Dataset& dataset,
                                   std::span<const NodeId> nodes,
                                   std::int64_t chunk_size = 4096);

/// Host-memory bytes the layer-wise approach must hold for intermediate
/// representations (the memory argument of §5).
std::size_t layerwise_memory_bytes(const nn::GnnModel& model,
                                   const Dataset& dataset,
                                   std::int64_t hidden_channels);

}  // namespace salient
