#ifndef CROWDRL_NN_SET_QNETWORK_H_
#define CROWDRL_NN_SET_QNETWORK_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/linear.h"

namespace crowdrl {

/// Hyper-parameters of the paper's Q-network (Fig. 3).
struct SetQNetworkConfig {
  size_t input_dim = 0;    ///< |f_t| + |f_w| (+2 quality channels for MDP(r)).
  size_t hidden_dim = 128; ///< "dimension of output features in each layer".
  size_t num_heads = 4;    ///< Fig. 3 shows h = 4.
  bool masked_attention = true;  ///< false = paper's raw zero-padding.
  /// Ablation of the paper's core architectural claim: when false, both
  /// attention layers are skipped and each task is scored by the row-wise
  /// stack alone — the "independent per-task value" design of prior DQN
  /// recommenders ([36],[37]) that the paper argues cannot model task
  /// competition.
  bool use_attention = true;
};

/// \brief The paper's permutation-invariant set Q-network (Fig. 3):
///
///   H1 = rFF_relu(X)            — task-worker rows → hidden
///   H2 = rFF_relu(H1)
///   R1 = H2 + MHSA₁(H2)         — "adding to the original features … helps
///   H3 = rFF_relu(R1)             keeping the network stable" (residual)
///   R2 = H3 + MHSA₂(H3)         — second attention: higher-order interaction
///   q  = rFF_linear(R2) → n×1   — one Q value per task slot
///
/// Row r of the input X is the concatenation [f_w ⊕ f_{t_r}] produced by the
/// StateTransformer; the output row r is Q(s, t_r). Because all layers are
/// permutation-equivariant, Q(s, t_r) does not depend on the ordering of the
/// task set — but *does* depend on which other tasks are present (tasks are
/// "competitive"), which is the architectural point of the paper.
///
/// The network is stateless across calls: all activations live in a
/// caller-owned `Cache`, so one (const) network can serve many threads
/// concurrently — this is how training batches are parallelized on CPU.
class SetQNetwork {
 public:
  /// Per-pass activation cache (inputs + intermediates for backprop). A
  /// warm cache makes ForwardInto allocation-free: every member resizes in
  /// place, so steady-state inference touches no heap.
  ///
  /// After ForwardInto every row is a query row: r2, pre_out and q_out
  /// cover all n rows. After ForwardAction with attention they cover the
  /// action row alone (`query_row`); without attention the whole stack ran
  /// on that row, so `x` itself is the one row.
  struct Cache {
    Matrix x;
    Matrix pre1, h1;  // rFF1
    Matrix pre2, h2;  // rFF2
    MultiHeadSelfAttention::Cache attn1;
    Matrix a1, r1;
    Matrix pre3, h3;  // rFF3
    MultiHeadSelfAttention::Cache attn2;
    Matrix a2, r2;
    Matrix pre_out;
    Matrix q_out;  // Q column of the query rows, owned here so ForwardInto
                   // returns a view
    size_t valid_n = 0;
    size_t query_row = MultiHeadSelfAttention::kAllRows;
  };

  /// Backward temporaries; a warm scratch makes BackwardInto
  /// allocation-free.
  struct BackwardScratch {
    Matrix dz;                  // pre-activation gradient of one rFF layer
    Matrix dr2, dh3, dr1, dh2, dh1;
    MultiHeadSelfAttention::BackwardScratch attn;
  };

  /// Flat gradient store; entry order matches Params().
  struct Gradients {
    std::vector<Matrix> g;

    void SetZero() {
      for (auto& m : g) m.SetZero();
    }
    /// Elementwise accumulate (for reducing per-thread gradients).
    void Add(const Gradients& other) {
      CROWDRL_CHECK(g.size() == other.g.size());
      for (size_t i = 0; i < g.size(); ++i) g[i] += other.g[i];
    }
  };

  SetQNetwork() = default;
  SetQNetwork(const SetQNetworkConfig& config, Rng* rng);

  const SetQNetworkConfig& config() const { return config_; }

  /// Forward pass over an n×input_dim state; rows >= valid_n are padding.
  /// Returns the n×1 column of Q values (only the first valid_n entries are
  /// meaningful). `cache` may be null for inference-only calls… except that
  /// backprop needs it, so training passes must supply one.
  Matrix Forward(const Matrix& x, size_t valid_n, Cache* cache) const;

  /// Destination-passing Forward: all activations and the returned Q column
  /// live in `*cache` (resized in place). With a warm cache the call is
  /// allocation-free — this is the serve hot path. The returned reference
  /// is `cache->q_out` and stays valid until the next pass through the
  /// cache.
  const Matrix& ForwardInto(const Matrix& x, size_t valid_n,
                            Cache* cache) const;

  /// The learner's training forward: Q(s, a) for `action_row` alone, with
  /// `cache` filled for BackwardInto. rFF1–rFF3, attention 1 and
  /// attention 2's keys and values still run over every row (row a attends
  /// to all of them), but attention 2's query, softmax, P·V and W_O, the
  /// residual and the output layer run for row a only; without attention
  /// the whole stack runs on row a. Every element goes through the same
  /// float operations as in ForwardInto, so the value is bit-identical to
  /// ForwardInto(x, valid_n)(action_row, 0).
  float ForwardAction(const Matrix& x, size_t valid_n, size_t action_row,
                      Cache* cache) const;

  /// Convenience: forward and extract Q values of the valid rows.
  std::vector<double> QValues(const Matrix& x, size_t valid_n) const;

  /// Allocation-free QValues: forwards through `*cache` and writes the
  /// valid-row Q values into `*out` (resized in place).
  void QValuesInto(const Matrix& x, size_t valid_n, Cache* cache,
                   std::vector<double>* out) const;

  /// Backprop `grad_q` (shaped like `cache.q_out`) through the pass that
  /// filled `cache`, accumulating parameter gradients into `grads`; all
  /// temporaries live in `*scratch` (allocation-free once warm). After
  /// ForwardAction, `grad_q` is the 1×1 gradient of Q(s, a): wherever the
  /// upstream gradient is nonzero on that row only — the output layer,
  /// attention 2's W_O, query and softmax, and its rank-1 per-head dK/dV —
  /// only that row is processed. rFF1's input gradient is never computed.
  /// This is the learner's training backward.
  void BackwardInto(const Matrix& grad_q, const Cache& cache,
                    BackwardScratch* scratch, Gradients* grads) const;

  /// Dense reference backward: `grad_q` is the n×1 column of a ForwardInto
  /// pass (zeros on non-action rows). The learner trains through
  /// ForwardAction + BackwardInto instead, which skips the rows this
  /// pass spends on zeros; tests keep this form as the reference the
  /// action-row pass must match bit for bit.
  void Backward(const Matrix& grad_q, const Cache& cache,
                Gradients* grads) const;

  /// Zeroed gradient store with shapes matching Params().
  Gradients MakeGradients() const;

  /// Mutable parameter list in canonical order (optimizer + target sync).
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;

  /// Hard copy of all parameters from `other` (target-network sync:
  /// "parameters θ̃ are slowly copied from parameters θ").
  void CopyFrom(const SetQNetwork& other);

  /// Total scalar parameter count.
  size_t NumParameters() const;

  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  /// Runs the stack over `cache->x` for the query rows `cache->query_row`
  /// selects; returns `cache->q_out`.
  const Matrix& ForwardCached(Cache* cache) const;

  SetQNetworkConfig config_;
  Linear rff1_, rff2_, rff3_, out_;
  MultiHeadSelfAttention attn1_, attn2_;
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_SET_QNETWORK_H_
