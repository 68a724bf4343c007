// Functional activations and a Dropout module (torch.nn.functional flavour).
#pragma once

#include "autograd/variable.h"
#include "nn/module.h"

namespace salient::nn {

/// max(x, 0).
Variable relu(const Variable& x);
/// Leaky ReLU with the PyTorch default slope 0.01.
Variable leaky_relu(const Variable& x, double slope = 0.01);
/// Row-wise log-softmax.
Variable log_softmax(const Variable& x);

/// Inverted dropout. Each forward draws the next seed of the module's
/// deterministic stream (see Module::set_seed). Eval passes draw one too, so
/// a training step's masks depend on how many eval passes ran before it.
class Dropout : public Module {
 public:
  explicit Dropout(double p) : p_(p) {}
  Variable forward(const Variable& x);
  /// dropout(relu(x)) as one fused autograd::relu_dropout pass; draws one
  /// seed, like forward.
  Variable forward_relu(const Variable& x);
  double p() const { return p_; }

 private:
  double p_;
};

}  // namespace salient::nn
