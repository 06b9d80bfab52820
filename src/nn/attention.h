#ifndef CROWDRL_NN_ATTENTION_H_
#define CROWDRL_NN_ATTENTION_H_

#include <iosfwd>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace crowdrl {

/// \brief Multi-head self-attention (paper Fig. 4 / Vaswani et al. [28]).
///
/// `MultiHead(X) = Concat(head_1..head_h)·W_O`, with
/// `head_i = softmax(X·W_Q_i (X·W_K_i)ᵀ / √d_k) · X·W_V_i`.
///
/// The layer is permutation-*equivariant* over rows (Appendix, Proof 2):
/// permuting input rows permutes output rows identically, which — stacked
/// with row-wise layers — makes the whole Q-network's per-task value
/// independent of task ordering.
///
/// Padding: states are zero-padded to `maxT` rows. The forward pass takes
/// `valid_n` (the number of real tasks); padded rows are excluded from the
/// softmax (score −∞) and produce zero output, so padding cannot leak into
/// Q values. `use_mask=false` reproduces the paper's raw zero-padding for
/// the ablation study.
class MultiHeadSelfAttention {
 public:
  /// Marks a Cache filled by ForwardInto: every row is a query row.
  static constexpr size_t kAllRows = static_cast<size_t>(-1);

  /// Per-pass activation cache; owned by the caller so that concurrent
  /// forward/backward passes can share one (const) layer. Also owns the
  /// forward pass's scratch buffers: a warm cache makes repeated
  /// ForwardInto calls allocation-free (all members resize in place).
  ///
  /// The query side (`q`, `probs`, `concat`) covers every row after
  /// ForwardInto, and only row `query_row` after ForwardRowInto; keys and
  /// values always cover every row.
  struct Cache {
    Matrix x;                     // input, n×d
    Matrix q, k, v;               // projections: q m×d, k and v n×d
    std::vector<Matrix> probs;    // per-head softmax, m×n
    Matrix concat;                // concatenated head outputs, m×d
    size_t valid_n = 0;
    size_t query_row = kAllRows;  // m = n when kAllRows, else m = 1
    Matrix x_row;                 // input row `query_row` (row passes)
    // Scratch (not consumed by Backward): per-head slices and the padding
    // mask, kept here so steady-state inference reuses their buffers.
    Matrix qh, kh, vh, oh;        // m×head_dim or n×head_dim
    std::vector<uint8_t> col_mask;
  };

  /// Parameter gradients, accumulated by Backward.
  struct Grads {
    Matrix dwq, dwk, dwv, dwo;
  };

  /// Destinations BackwardInto accumulates into (they may live in any
  /// caller-owned store, e.g. the Q-network's flat gradient list).
  struct GradRefs {
    Matrix* dwq;
    Matrix* dwk;
    Matrix* dwv;
    Matrix* dwo;
  };

  /// Backward temporaries; a warm scratch makes BackwardInto
  /// allocation-free.
  struct BackwardScratch {
    Matrix dy, dconcat, dq, dk, dv;
    Matrix doh, qh, kh, vh;                 // per-head slices
    Matrix dprobs, dscores, dqh, dkh, dvh;  // per-head gradients
    Matrix projected;                       // one dX term
  };

  MultiHeadSelfAttention() = default;

  /// `dim` must be divisible by `num_heads`.
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng* rng,
                         bool use_mask = true);

  size_t dim() const { return wq_.rows(); }
  size_t num_heads() const { return num_heads_; }
  bool use_mask() const { return use_mask_; }
  void set_use_mask(bool m) { use_mask_ = m; }

  /// Forward over an n×dim input. Rows at index >= valid_n are treated as
  /// padding. Fills `cache` for the corresponding Backward call.
  Matrix Forward(const Matrix& x, size_t valid_n, Cache* cache) const;

  /// Destination-passing Forward: writes the n×dim output into `*out`
  /// (resized in place) and uses only `cache`-owned scratch, so repeated
  /// calls with a warm cache perform zero heap allocations. `out` must not
  /// alias `x`.
  void ForwardInto(const Matrix& x, size_t valid_n, Cache* cache,
                   Matrix* out) const;

  /// Output row `row` only, as a 1×dim matrix: keys and values still
  /// project every row (the row attends to all of them), but the query,
  /// softmax, P·V and W_O run for that row alone. Each element goes
  /// through the same operations as in ForwardInto, so the result is
  /// bit-identical to row `row` of ForwardInto's output.
  void ForwardRowInto(const Matrix& x, size_t valid_n, size_t row,
                      Cache* cache, Matrix* out) const;

  /// Backward: upstream gradient `grad_out` (n×dim) → input gradient
  /// (n×dim); parameter grads are accumulated into `grads`.
  Matrix Backward(const Matrix& grad_out, const Cache& cache,
                  Grads* grads) const;

  /// Destination-passing Backward of either forward: `grad_out` covers the
  /// cache's query rows (n×dim after ForwardInto, 1×dim after
  /// ForwardRowInto); the n×dim input gradient goes to `*dx`. After a row
  /// pass, dW_O, dW_Q and the per-head dK/dV are rank-1 and the softmax
  /// backward runs on one row — the operations of the dense backward that
  /// the zero rows of its upstream gradient do not reach.
  void BackwardInto(const Matrix& grad_out, const Cache& cache,
                    const GradRefs& grads, BackwardScratch* scratch,
                    Matrix* dx) const;

  /// Zero-initialized gradient store with matching shapes.
  Grads MakeGrads() const;

  Matrix& wq() { return wq_; }
  Matrix& wk() { return wk_; }
  Matrix& wv() { return wv_; }
  Matrix& wo() { return wo_; }
  const Matrix& wq() const { return wq_; }
  const Matrix& wk() const { return wk_; }
  const Matrix& wv() const { return wv_; }
  const Matrix& wo() const { return wo_; }

  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);

 private:
  size_t head_dim() const { return wq_.cols() / num_heads_; }
  /// Shared forward tail: projects keys and values of cache->x, attends the
  /// query rows `xq` (the first `valid_q` of them real) and writes
  /// concat·W_O to `*out`.
  void AttendInto(const Matrix& xq, size_t valid_q, Cache* cache,
                  Matrix* out) const;

  Matrix wq_, wk_, wv_;  // dim×dim, heads laid out in column blocks
  Matrix wo_;            // dim×dim
  size_t num_heads_ = 1;
  bool use_mask_ = true;
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_ATTENTION_H_
