#include "nn/activations.h"

#include "autograd/functions.h"

namespace salient::nn {

Variable relu(const Variable& x) { return autograd::relu(x); }

Variable leaky_relu(const Variable& x, double slope) {
  return autograd::leaky_relu(x, slope);
}

Variable log_softmax(const Variable& x) { return autograd::log_softmax(x); }

Variable Dropout::forward(const Variable& x) {
  return autograd::dropout(x, p_, is_training(), next_seed());
}

Variable Dropout::forward_relu(const Variable& x) {
  return autograd::relu_dropout(x, p_, is_training(), next_seed());
}

}  // namespace salient::nn
