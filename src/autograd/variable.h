// Tape-based reverse-mode automatic differentiation.
//
// A Variable wraps a Tensor plus optional gradient state. Operations from
// autograd/functions.h build a DAG of Node objects (one per produced
// Variable); Variable::backward() runs the reverse sweep and accumulates
// gradients into leaf Variables (parameters). This mirrors the subset of
// PyTorch autograd the paper's training loop relies on.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace salient {

class Variable;

/// A node in the autograd tape: produced one Variable from `inputs`.
class Node {
 public:
  virtual ~Node() = default;

  /// Gradients of the node's output w.r.t. each input, given the gradient of
  /// some scalar loss w.r.t. the output.
  ///
  /// Contract:
  ///   * Skip inputs that need no gradient: compute nothing for an input
  ///     whose requires_grad() is false (it never changes after the op is
  ///     built) and return an undefined Tensor for it. The engine ignores
  ///     that entry, so returning a tensor already at hand (Add's
  ///     `grad_out`) is fine too.
  ///   * Never mutate `grad_out`. The returned tensors may alias `grad_out`
  ///     or each other (Add returns `grad_out` for both inputs): the engine
  ///     moves them into its gradient slots without copying, sums fan-in out
  ///     of place, and never mutates a tensor a closure returned. Only a
  ///     leaf's first gradient is copied, since the leaf later accumulates
  ///     into it in place.
  virtual std::vector<Tensor> backward(const Tensor& grad_out) = 0;

  /// Diagnostic name ("MatMul", "ReLU", ...).
  virtual const char* name() const = 0;

  /// The input variables this node consumed (fixed at construction).
  const std::vector<Variable>& inputs() const { return inputs_; }

 protected:
  explicit Node(std::vector<Variable> inputs) : inputs_(std::move(inputs)) {}

 private:
  std::vector<Variable> inputs_;
};

using NodePtr = std::shared_ptr<Node>;

/// A differentiable tensor. Copying is cheap (shared state).
class Variable {
 public:
  /// Undefined variable.
  Variable() = default;

  /// Wrap `data` as a leaf. Leaves with requires_grad=true accumulate
  /// gradients during backward (i.e., they are parameters or inputs under
  /// test).
  explicit Variable(Tensor data, bool requires_grad = false);

  /// Internal: wrap an op result with its producing node.
  static Variable from_op(Tensor data, NodePtr node, bool requires_grad);

  bool defined() const { return impl_ != nullptr; }

  /// The wrapped tensor (mutable access allowed for optimizers).
  Tensor& data();
  const Tensor& data() const;

  /// Accumulated gradient; undefined until backward reached this leaf.
  const Tensor& grad() const;
  /// True when this variable participates in gradient computation.
  bool requires_grad() const;
  /// The producing node (null for leaves).
  const NodePtr& grad_fn() const;

  /// Drop the accumulated gradient.
  void zero_grad();
  /// Add `g` into the accumulated gradient (allocating on first use).
  void accumulate_grad(const Tensor& g);

  /// Run reverse-mode differentiation from this (scalar or seeded) variable.
  /// If `grad_seed` is undefined, the variable must have exactly one element
  /// and is seeded with 1.
  void backward(Tensor grad_seed = Tensor()) const;

  /// Identity useful for hashing/sets in the engine.
  const void* id() const { return impl_.get(); }

  friend bool operator==(const Variable& a, const Variable& b) {
    return a.impl_ == b.impl_;
  }

 private:
  struct Impl {
    Tensor data;
    Tensor grad;
    bool requires_grad = false;
    NodePtr grad_fn;
  };
  std::shared_ptr<Impl> impl_;
};

/// Convenience node implemented with a lambda. The lambda receives the
/// output gradient and `need`: need[i] is inputs()[i].requires_grad(), read
/// once when the node is built, and input i's gradient is computed only
/// when need[i] is set (see Node::backward).
class LambdaNode final : public Node {
 public:
  using BackwardFn = std::function<std::vector<Tensor>(
      const Tensor& grad_out, const std::vector<bool>& need)>;

  LambdaNode(const char* name, std::vector<Variable> inputs,
             std::vector<bool> need, BackwardFn fn)
      : Node(std::move(inputs)),
        name_(name),
        need_(std::move(need)),
        fn_(std::move(fn)) {}

  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return fn_(grad_out, need_);
  }
  const char* name() const override { return name_; }

 private:
  const char* name_;
  std::vector<bool> need_;
  BackwardFn fn_;
};

/// Build an op-result Variable: requires_grad is inherited from inputs, and
/// the node is only attached when some input requires grad.
Variable make_op_result(const char* name, Tensor data,
                        std::vector<Variable> inputs,
                        LambdaNode::BackwardFn backward_fn);

}  // namespace salient
