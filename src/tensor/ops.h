#ifndef CROWDRL_TENSOR_OPS_H_
#define CROWDRL_TENSOR_OPS_H_

#include <vector>

#include "tensor/matrix.h"

namespace crowdrl {

/// \file
/// Free-function linear-algebra kernels. The three matmul variants cover
/// every product the NN backward passes need without materializing
/// transposes:
///   Matmul(A, B)            = A · B
///   MatmulTransposeB(A, B)  = A · Bᵀ   (e.g. attention scores Q·Kᵀ)
///   MatmulTransposeA(A, B)  = Aᵀ · B   (e.g. weight gradients Xᵀ·dY)
///
/// Two implementation tiers exist (the "tolerance ladder" the kernel tests
/// enforce; see tests/tensor/kernel_equivalence_test.cc):
///
///  * **bit-exact tier** (scalar build) — `Matmul` and `MatmulTransposeA`
///    keep the scalar per-element reduction order (k ascending): they run
///    4-row × 8-column register tiles whose accumulators live across the
///    whole k loop, which moves where partial sums live but not a single
///    rounding step, so results are bit-identical to the plain scalar
///    loops in `reference::`. `MatmulTransposeB` computes four dot
///    products at a time, each with the same fixed four-lane reduction
///    (lane sums, `(s0 + s1) + (s2 + s3)`, sequential tail), so it is
///    bit-exact against that four-lane reduction — though not against the
///    sequential `reference::MatmulTransposeB`, from which it stays a
///    k-scaled epsilon away (a float reduction cannot vectorize in order).
///  * **bounded-epsilon tier** — every kernel compiled under
///    `CROWDRL_ENABLE_AVX2` uses 8-wide FMA (per-element FMA order inside
///    the tiles is kept, but an FMA rounds once where the scalar loop
///    rounds twice), and `MatmulTransposeAAccumulate` interleaves with C's
///    prior contents. These agree with the references only to a k-scaled
///    epsilon. They remain deterministic: the same inputs always produce
///    the same bits, which is all the serial == service equivalence chain
///    needs.
///
/// The learner depends on the scalar build's exactness: its action-row
/// training pass (SetQNetwork::ForwardAction/BackwardAction) runs the same
/// per-element operations on a single row that the dense pass runs on
/// every row, and only that keeps perfbench's recorded quality rows
/// reproducible bit for bit.
///
/// All kernels are branch-free in their inner loops: the old
/// `if (aik == 0.0f) continue;` zero-skip was removed because it broke
/// IEEE propagation (0×NaN must yield NaN, so corrupted weights could sail
/// through a zero-padded row silently) and put a data-dependent branch in
/// the hottest loop, defeating vectorization.
///
/// The `*Into` forms write into a caller-owned destination, resizing it in
/// place (capacity is reused, see Matrix::Resize); steady-state inference
/// through them performs no heap allocation. The value-returning forms are
/// convenience wrappers. Destinations must not alias the inputs.

/// True when this build's kernels use the explicit AVX2/FMA paths
/// (-DCROWDRL_ENABLE_AVX2=ON); false for the portable scalar fallback.
bool KernelUsesAvx2();

/// C = A·B. Shapes: (m×k)·(k×n) → m×n. Bit-exact tier (scalar build).
void MatmulInto(const Matrix& a, const Matrix& b, Matrix* c);
Matrix Matmul(const Matrix& a, const Matrix& b);

/// C = A·Bᵀ. Shapes: (m×k)·(n×k)ᵀ → m×n. Bit-exact against the four-lane
/// reduction (scalar build); bounded-epsilon against the sequential loop.
void MatmulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* c);
Matrix MatmulTransposeB(const Matrix& a, const Matrix& b);

/// C = Aᵀ·B. Shapes: (k×m)ᵀ·(k×n) → m×n. Bit-exact tier (scalar build).
void MatmulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* c);
Matrix MatmulTransposeA(const Matrix& a, const Matrix& b);

/// C += Aᵀ·B without materializing the product (gradient accumulation:
/// dW += Xᵀ·dY). Interleaves the accumulation with C's prior contents, so
/// it is bounded-epsilon relative to `C += MatmulTransposeA(A, B)`.
void MatmulTransposeAAccumulate(const Matrix& a, const Matrix& b, Matrix* c);

/// In-place fused scale+mask+softmax: row ← softmax(scale·row) with masked
/// columns (mask==0) receiving zero probability and rows at index >=
/// `valid_rows` zeroed (when `valid_rows >= 0`). Fully-masked rows emit
/// zeros rather than NaNs. This is the attention scoring kernel: one pass
/// replaces the separate scale-then-softmax sequence, and the common
/// prefix-shaped padding mask (1…1 0…0) takes branch-free inner loops.
/// Bit-exact with scaling then calling the unfused reference softmax.
void ScaledMaskedSoftmaxRowsInPlace(Matrix* m, float scale,
                                    const std::vector<uint8_t>* col_mask,
                                    long valid_rows);

/// In-place row softmax (no scaling). When `valid_rows >= 0`, only the
/// first `valid_rows` rows are transformed (the rest are zeroed); when
/// `col_mask` is non-null, entries at masked-out columns (mask==0) receive
/// zero probability. This is the masked softmax used by the attention
/// layer so that zero-padded task slots neither attend nor get attended to.
void SoftmaxRowsInPlace(Matrix* m, const std::vector<uint8_t>* col_mask = nullptr,
                        long valid_rows = -1);

/// Backward of row softmax: given P = softmax(S) row-wise and upstream dP,
/// returns dS where dS = P ∘ (dP − rowsum(dP ∘ P)).
Matrix SoftmaxRowsBackward(const Matrix& probs, const Matrix& grad_probs);
/// Destination-passing SoftmaxRowsBackward (allocation-free once warm).
void SoftmaxRowsBackwardInto(const Matrix& probs, const Matrix& grad_probs,
                             Matrix* out);

/// Numerically-stable softmax of a plain vector (utility for policies).
std::vector<double> SoftmaxVector(const std::vector<double>& logits);

/// Dot product of two equal-length float spans (sequential reduction).
float Dot(const float* a, const float* b, size_t n);

/// Cosine similarity of two equal-length vectors; 0 when either is zero.
double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b);

/// Retained scalar reference implementations: the plain, unblocked,
/// sequential-reduction loops the optimized kernels are validated against
/// (randomized equivalence + the tolerance ladder) and benchmarked against
/// (the A/B baselines in bench_micro_benchmarks). Not for production use.
namespace reference {

Matrix Matmul(const Matrix& a, const Matrix& b);
Matrix MatmulTransposeB(const Matrix& a, const Matrix& b);
Matrix MatmulTransposeA(const Matrix& a, const Matrix& b);
/// Unfused scale-then-softmax with per-element mask branches.
void ScaledMaskedSoftmaxRows(Matrix* m, float scale,
                             const std::vector<uint8_t>* col_mask,
                             long valid_rows);

}  // namespace reference

}  // namespace crowdrl

#endif  // CROWDRL_TENSOR_OPS_H_
