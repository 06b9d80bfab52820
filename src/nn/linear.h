#ifndef CROWDRL_NN_LINEAR_H_
#define CROWDRL_NN_LINEAR_H_

#include <iosfwd>

#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace crowdrl {

/// \brief Row-wise feed-forward layer (the paper's "rFF"):
/// `y = act(x·W + b)`, applied to each row independently.
///
/// Because each row is transformed identically and independently, the layer
/// is permutation-invariant over the set dimension — the property the
/// paper's Q-network relies on (Appendix, Proof 1).
///
/// The layer owns its parameters but keeps **no** activation state; all
/// intermediates live in caller-provided caches so concurrent forward passes
/// over shared weights are safe (used to parallelize training batches).
class Linear {
 public:
  enum class Activation { kIdentity, kRelu };

  Linear() = default;

  /// Xavier-initialized weights, zero bias.
  Linear(size_t in_dim, size_t out_dim, Activation act, Rng* rng)
      : w_(Matrix::Xavier(in_dim, out_dim, rng)),
        b_(1, out_dim),
        act_(act) {}

  size_t in_dim() const { return w_.rows(); }
  size_t out_dim() const { return w_.cols(); }
  Activation activation() const { return act_; }

  /// Forward over a (n×in) batch of rows; returns n×out.
  /// When `pre_activation` is non-null it receives x·W+b (needed by
  /// Backward for the ReLU mask).
  Matrix Forward(const Matrix& x, Matrix* pre_activation = nullptr) const;

  /// Destination-passing Forward: writes into `*out` (resized in place;
  /// allocation-free once warm). `out` must alias neither `x` nor
  /// `pre_activation`.
  void ForwardInto(const Matrix& x, Matrix* pre_activation,
                   Matrix* out) const;

  /// Backward pass. `x` is the forward input, `pre_activation` the cached
  /// x·W+b, `grad_out` is d(loss)/d(y). Parameter gradients are
  /// *accumulated* into dw/db; returns d(loss)/d(x).
  Matrix Backward(const Matrix& x, const Matrix& pre_activation,
                  const Matrix& grad_out, Matrix* dw, Matrix* db) const;

  /// Destination-passing Backward: `*dz` is scratch that receives
  /// d(loss)/d(x·W+b), the input gradient goes to `*dx` (skipped when `dx`
  /// is null — the first layer's input gradient is never read). Both are
  /// resized in place, so a warm call allocates nothing. Neither may alias
  /// an input.
  void BackwardInto(const Matrix& x, const Matrix& pre_activation,
                    const Matrix& grad_out, Matrix* dw, Matrix* db,
                    Matrix* dz, Matrix* dx) const;

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& bias() const { return b_; }

  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);

 private:
  Matrix w_;  // in×out
  Matrix b_;  // 1×out
  Activation act_ = Activation::kIdentity;
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_LINEAR_H_
