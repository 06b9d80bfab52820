#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#ifdef CROWDRL_HAVE_AVX2
#include <immintrin.h>
#elif defined(__x86_64__) || defined(__i386__)
// The portable x86 build carries a second copy of the matmul kernels,
// compiled for AVX (8-float registers, no FMA) and chosen at run time.
#define CROWDRL_DISPATCH_AVX 1
#endif

namespace crowdrl {

bool KernelUsesAvx2() {
#ifdef CROWDRL_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

namespace {

inline void ZeroRow(float* row, size_t n) { std::fill(row, row + n, 0.0f); }

// The matmul kernels are written once, against the few register helpers
// below, and compiled per instruction set: every helper and template they
// use is always inlined into an entry point that carries the target. The
// helpers take registers by reference, never by value, so no function
// signature carries a 32-byte vector outside an AVX-enabled function.
#define CROWDRL_KERNEL_INLINE inline __attribute__((always_inline))

// Views of four and eight floats at any float address, through which the
// kernels load and store registers. (A memcpy into a register array can
// be merged into one block copy through the stack, which a wider load then
// reads back with a store-forwarding stall.)
template <size_t kBytes>
struct Unaligned;
template <>
struct Unaligned<16> {
  typedef float type __attribute__((vector_size(16), aligned(4), may_alias));
};
template <>
struct Unaligned<32> {
  typedef float type __attribute__((vector_size(32), aligned(4), may_alias));
};
template <typename V>
constexpr size_t kLanesOf = sizeof(V) / sizeof(float);
template <typename V>
CROWDRL_KERNEL_INLINE void LoadLanes(const float* p, V* v) {
  *v = *reinterpret_cast<const typename Unaligned<sizeof(V)>::type*>(p);
}
template <typename V>
CROWDRL_KERNEL_INLINE void StoreLanes(float* p, const V& v) {
  *reinterpret_cast<typename Unaligned<sizeof(V)>::type*>(p) = v;
}

// Per lane, MulAdd is the scalar loop's `acc + a·b`: two roundings
// (product, then sum) in the portable build, one fused multiply-add under
// AVX2.
#ifdef CROWDRL_HAVE_AVX2
using TileLanes = __m256;
using DotLanes = __m256;
CROWDRL_KERNEL_INLINE void MulAdd(__m256* acc, const __m256& a,
                                  const __m256& b) {
  *acc = _mm256_fmadd_ps(a, b, *acc);
}
CROWDRL_KERNEL_INLINE void MulAdd(__m256* acc, float a, const __m256& b) {
  MulAdd(acc, _mm256_set1_ps(a), b);
}
/// Horizontal sum of the eight partial sums of a blocked dot product.
CROWDRL_KERNEL_INLINE float SumDotLanes(const __m256& v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}
#else
// GCC/Clang vectors of four and eight floats: element-wise IEEE arithmetic
// that the compiler lowers to the instruction set of the function it is
// inlined into (SSE, AVX, or plain scalar code on a target without
// vectors), with the accumulators held in registers — plain float arrays
// of the same shape get spilled to the stack on every k step.
typedef float Float4 __attribute__((vector_size(16)));
typedef float Float8 __attribute__((vector_size(32)));
/// The baseline build's tiles; the AVX variant runs Float8 tiles.
using TileLanes = Float4;
/// MatmulTransposeB's dot products run four lanes in every variant.
using DotLanes = Float4;
/// `a` is a register or a float; a float is broadcast to every lane (which
/// compiles to one broadcast, where a brace-initialised splat does not).
template <typename V, typename A>
CROWDRL_KERNEL_INLINE void MulAdd(V* acc, const A& a, const V& b) {
  *acc = *acc + a * b;
}
/// The fixed four-lane combine of a blocked dot product.
CROWDRL_KERNEL_INLINE float SumDotLanes(const Float4& v) {
  return (v[0] + v[1]) + (v[2] + v[3]);
}
#endif

/// A(i, kk), or A(kk, i) for the Aᵀ·B kernels.
template <bool kTransA>
CROWDRL_KERNEL_INLINE float AAt(const Matrix& a, size_t i, size_t kk) {
  return kTransA ? a.row_data(kk)[i] : a.row_data(i)[kk];
}

/// One R×W register tile of a matrix product, shared by MatmulInto (C = A·B,
/// accumulators start at zero) and the Aᵀ·B kernels (C += Aᵀ·B, they start
/// from C's contents; `kTransA` reads A(kk, i) instead of A(i, kk)).
/// The tile's C elements stay in accumulators across the whole k loop, so
/// each is loaded (or zeroed) once and stored once, and each B row segment
/// is read once per R rows. Per element the update sequence is exactly the
/// scalar loop's — acc ← acc + a·b for k ascending — so moving the partial
/// sums into registers, or widening the registers, changes no rounding
/// step. W = 1 is the column tail, kept in plain floats.
template <typename V, size_t R, size_t W, bool kTransA>
CROWDRL_KERNEL_INLINE void ProductTile(const Matrix& a, const Matrix& b,
                                       Matrix* c, size_t i0, size_t j0,
                                       size_t k) {
  float* crow[R];
  for (size_t r = 0; r < R; ++r) crow[r] = c->row_data(i0 + r) + j0;
  if constexpr (W == 1) {
    float acc[R];
    for (size_t r = 0; r < R; ++r) acc[r] = kTransA ? crow[r][0] : 0.0f;
    for (size_t kk = 0; kk < k; ++kk) {
      const float bv = b.row_data(kk)[j0];
      for (size_t r = 0; r < R; ++r) acc[r] += AAt<kTransA>(a, i0 + r, kk) * bv;
    }
    for (size_t r = 0; r < R; ++r) crow[r][0] = acc[r];
  } else {
    constexpr size_t kLanes = kLanesOf<V>;
    static_assert(W % kLanes == 0, "tile width must be whole registers");
    constexpr size_t kRegs = W / kLanes;
    V acc[R][kRegs];
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < kRegs; ++v) {
        if (kTransA) {
          LoadLanes(crow[r] + v * kLanes, &acc[r][v]);
        } else {
          acc[r][v] = V{};
        }
      }
    }
    for (size_t kk = 0; kk < k; ++kk) {
      const float* brow = b.row_data(kk) + j0;
      V bv[kRegs];
      for (size_t v = 0; v < kRegs; ++v) LoadLanes(brow + v * kLanes, &bv[v]);
      for (size_t r = 0; r < R; ++r) {
        const float av = AAt<kTransA>(a, i0 + r, kk);
        for (size_t v = 0; v < kRegs; ++v) MulAdd(&acc[r][v], av, bv[v]);
      }
    }
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < kRegs; ++v) {
        StoreLanes(crow[r] + v * kLanes, acc[r][v]);
      }
    }
  }
}

/// Covers rows [i0, i0+R) of the m×n product: two-register-wide tiles
/// (4×16 with 8-float registers), then one-register tiles, then one-column
/// tails. A lone row (R = 1) first takes 32-wide tiles, so it still keeps
/// enough independent accumulators in flight to hide the add latency.
template <typename V, size_t R, bool kTransA>
CROWDRL_KERNEL_INLINE void ProductRowBlock(const Matrix& a, const Matrix& b,
                                           Matrix* c, size_t i0, size_t n,
                                           size_t k) {
  constexpr size_t kLanes = kLanesOf<V>;
  size_t j = 0;
  if constexpr (R == 1) {
    for (; j + 32 <= n; j += 32) {
      ProductTile<V, 1, 32, kTransA>(a, b, c, i0, j, k);
    }
  }
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    ProductTile<V, R, 2 * kLanes, kTransA>(a, b, c, i0, j, k);
  }
  for (; j + kLanes <= n; j += kLanes) {
    ProductTile<V, R, kLanes, kTransA>(a, b, c, i0, j, k);
  }
  for (; j < n; ++j) ProductTile<V, R, 1, kTransA>(a, b, c, i0, j, k);
}

/// The tiled product all bit-exact matmuls run: 4-row blocks, then a
/// one-row tail. `*c` must already have the product's shape.
template <typename V, bool kTransA>
CROWDRL_KERNEL_INLINE void TiledProduct(const Matrix& a, const Matrix& b,
                                        Matrix* c) {
  const size_t m = kTransA ? a.cols() : a.rows();
  const size_t k = kTransA ? a.rows() : a.cols();
  const size_t n = b.cols();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) ProductRowBlock<V, 4, kTransA>(a, b, c, i, n, k);
  for (; i < m; ++i) ProductRowBlock<V, 1, kTransA>(a, b, c, i, n, k);
}

/// Q dot products a·b[q] at once, each with a reassociated reduction:
/// DotLanes-wide independent partial sums so the k loop vectorizes,
/// combined by SumDotLanes, then a sequential tail. Sharing the loads of
/// `a` across Q outputs changes no output's operation sequence, so Q = 4
/// and Q = 1 give the same bits, and so do the baseline and AVX copies.
/// (A float reduction cannot vectorize in order, so this is bounded-epsilon
/// against the sequential Dot.)
template <size_t Q>
CROWDRL_KERNEL_INLINE void DotBlocked(const float* a, const float* const* b,
                                      size_t n, float* out) {
  constexpr size_t kLanes = sizeof(DotLanes) / sizeof(float);
  DotLanes acc[Q];
  for (size_t q = 0; q < Q; ++q) acc[q] = DotLanes{};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    DotLanes va;
    LoadLanes(a + i, &va);
    for (size_t q = 0; q < Q; ++q) {
      DotLanes vb;
      LoadLanes(b[q] + i, &vb);
      MulAdd(&acc[q], va, vb);
    }
  }
  for (size_t q = 0; q < Q; ++q) {
    float sum = SumDotLanes(acc[q]);
    for (size_t t = i; t < n; ++t) sum += a[t] * b[q][t];
    out[q] = sum;
  }
}

/// C = A·Bᵀ, four B rows at a time, then single B rows. `*c` must already
/// have the product's shape.
CROWDRL_KERNEL_INLINE void DotProducts(const Matrix& a, const Matrix& b,
                                       Matrix* c) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.row_data(i);
    float* crow = c->row_data(i);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* brows[4] = {b.row_data(j), b.row_data(j + 1),
                               b.row_data(j + 2), b.row_data(j + 3)};
      DotBlocked<4>(arow, brows, k, crow + j);
    }
    for (; j < n; ++j) {
      const float* brow = b.row_data(j);
      DotBlocked<1>(arow, &brow, k, crow + j);
    }
  }
}

/// One compiled copy of the matmul kernels. Each entry point writes a
/// destination that already has the product's shape: `product` and
/// `product_tb` overwrite it, `product_ta` accumulates onto it.
struct MatmulKernels {
  void (*product)(const Matrix& a, const Matrix& b, Matrix* c);     // A·B
  void (*product_ta)(const Matrix& a, const Matrix& b, Matrix* c);  // +Aᵀ·B
  void (*product_tb)(const Matrix& a, const Matrix& b, Matrix* c);  // A·Bᵀ
};

void BaselineProduct(const Matrix& a, const Matrix& b, Matrix* c) {
  TiledProduct<TileLanes, /*kTransA=*/false>(a, b, c);
}
void BaselineProductTA(const Matrix& a, const Matrix& b, Matrix* c) {
  TiledProduct<TileLanes, /*kTransA=*/true>(a, b, c);
}
void BaselineProductTB(const Matrix& a, const Matrix& b, Matrix* c) {
  DotProducts(a, b, c);
}
constexpr MatmulKernels kBaselineKernels = {
    BaselineProduct, BaselineProductTA, BaselineProductTB};

#ifdef CROWDRL_DISPATCH_AVX
// The `avx` target enables 256-bit registers but not FMA, so every
// `acc + a·b` still rounds twice and the results stay bit-identical to the
// baseline's. The dot products keep their four lanes (VEX-encoded here).
__attribute__((target("avx"))) void AvxProduct(const Matrix& a,
                                               const Matrix& b, Matrix* c) {
  TiledProduct<Float8, /*kTransA=*/false>(a, b, c);
}
__attribute__((target("avx"))) void AvxProductTA(const Matrix& a,
                                                 const Matrix& b, Matrix* c) {
  TiledProduct<Float8, /*kTransA=*/true>(a, b, c);
}
__attribute__((target("avx"))) void AvxProductTB(const Matrix& a,
                                                 const Matrix& b, Matrix* c) {
  DotProducts(a, b, c);
}
constexpr MatmulKernels kAvxKernels = {AvxProduct, AvxProductTA,
                                       AvxProductTB};
#endif

const MatmulKernels& KernelsOf([[maybe_unused]] KernelVariant v) {
#ifdef CROWDRL_DISPATCH_AVX
  if (v == KernelVariant::kAvx) return kAvxKernels;
#endif
  return kBaselineKernels;
}

/// The copy every public matmul runs, resolved once, at first use.
const MatmulKernels& SelectedKernels() {
  static const MatmulKernels& selected = KernelsOf(SelectedKernelVariant());
  return selected;
}

/// The copy a variant:: entry point names; it must be runnable here.
const MatmulKernels& CheckedKernelsOf(KernelVariant v) {
  CROWDRL_CHECK_MSG(KernelVariantAvailable(v),
                    "kernel variant not available on this build or CPU");
  return KernelsOf(v);
}

void ProductInto(const MatmulKernels& kernels, const Matrix& a,
                 const Matrix& b, Matrix* c) {
  CROWDRL_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.rows(), b.cols());
  kernels.product(a, b, c);
}

void ProductTransposeBInto(const MatmulKernels& kernels, const Matrix& a,
                           const Matrix& b, Matrix* c) {
  CROWDRL_CHECK_MSG(a.cols() == b.cols(), "matmulTB shape mismatch");
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.rows(), b.rows());
  kernels.product_tb(a, b, c);
}

void ProductTransposeAInto(const MatmulKernels& kernels, const Matrix& a,
                           const Matrix& b, Matrix* c) {
  CROWDRL_CHECK_MSG(a.rows() == b.rows(), "matmulTA shape mismatch");
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.cols(), b.cols());
  c->SetZero();
  kernels.product_ta(a, b, c);
}

void ProductTransposeAAccumulate(const MatmulKernels& kernels,
                                 const Matrix& a, const Matrix& b,
                                 Matrix* c) {
  CROWDRL_CHECK_MSG(a.rows() == b.rows(), "matmulTA shape mismatch");
  CROWDRL_CHECK(c->rows() == a.cols() && c->cols() == b.cols());
  CROWDRL_CHECK(c != &a && c != &b);
  kernels.product_ta(a, b, c);
}

}  // namespace

bool KernelVariantAvailable(KernelVariant v) {
  if (v == KernelVariant::kBaseline) return true;
#ifdef CROWDRL_DISPATCH_AVX
  // Also checks that the OS saves the 256-bit register state.
  return __builtin_cpu_supports("avx");
#else
  return false;
#endif
}

KernelVariant SelectedKernelVariant() {
  return KernelVariantAvailable(KernelVariant::kAvx) ? KernelVariant::kAvx
                                                     : KernelVariant::kBaseline;
}

const char* KernelVariantName(KernelVariant v) {
  if (v == KernelVariant::kAvx) return "avx";
#if defined(CROWDRL_HAVE_AVX2)
  return "avx2-fma";
#elif defined(CROWDRL_DISPATCH_AVX)
  return "sse";
#else
  return "generic";
#endif
}

void MatmulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  ProductInto(SelectedKernels(), a, b, c);
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulInto(a, b, &c);
  return c;
}

void MatmulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  ProductTransposeBInto(SelectedKernels(), a, b, c);
}

Matrix MatmulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulTransposeBInto(a, b, &c);
  return c;
}

void MatmulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* c) {
  ProductTransposeAInto(SelectedKernels(), a, b, c);
}

Matrix MatmulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulTransposeAInto(a, b, &c);
  return c;
}

void MatmulTransposeAAccumulate(const Matrix& a, const Matrix& b, Matrix* c) {
  ProductTransposeAAccumulate(SelectedKernels(), a, b, c);
}

namespace variant {

void MatmulInto(KernelVariant v, const Matrix& a, const Matrix& b,
                Matrix* c) {
  ProductInto(CheckedKernelsOf(v), a, b, c);
}

void MatmulTransposeBInto(KernelVariant v, const Matrix& a, const Matrix& b,
                          Matrix* c) {
  ProductTransposeBInto(CheckedKernelsOf(v), a, b, c);
}

void MatmulTransposeAInto(KernelVariant v, const Matrix& a, const Matrix& b,
                          Matrix* c) {
  ProductTransposeAInto(CheckedKernelsOf(v), a, b, c);
}

void MatmulTransposeAAccumulate(KernelVariant v, const Matrix& a,
                                const Matrix& b, Matrix* c) {
  ProductTransposeAAccumulate(CheckedKernelsOf(v), a, b, c);
}

}  // namespace variant

namespace {

/// The general-mask softmax path: per-element mask branches, used only
/// when the mask is not prefix-shaped (never the case in attention).
void GeneralMaskedSoftmaxRow(float* row, size_t cols, float scale,
                             const std::vector<uint8_t>& col_mask) {
  float max_v = -std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < cols; ++c) {
    row[c] *= scale;
    if (col_mask[c]) max_v = std::max(max_v, row[c]);
  }
  if (!std::isfinite(max_v)) {
    ZeroRow(row, cols);
    return;
  }
  float sum = 0.0f;
  for (size_t c = 0; c < cols; ++c) {
    if (!col_mask[c]) {
      row[c] = 0.0f;
    } else {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
  }
  const float inv = 1.0f / sum;
  for (size_t c = 0; c < cols; ++c) row[c] *= inv;
}

}  // namespace

void ScaledMaskedSoftmaxRowsInPlace(Matrix* m, float scale,
                                    const std::vector<uint8_t>* col_mask,
                                    long valid_rows) {
  const size_t rows = m->rows(), cols = m->cols();
  if (col_mask != nullptr) {
    CROWDRL_CHECK(col_mask->size() == cols);
  }
  const size_t active_rows =
      valid_rows < 0 ? rows : std::min<size_t>(rows, valid_rows);

  // Padding masks are prefix-shaped (1…1 0…0): detect that once and take
  // branch-free inner loops over the valid prefix. Arbitrary masks fall
  // back to the per-element-branch path.
  size_t valid_cols = cols;
  bool prefix = true;
  if (col_mask != nullptr) {
    valid_cols = 0;
    while (valid_cols < cols && (*col_mask)[valid_cols]) ++valid_cols;
    for (size_t c = valid_cols; c < cols; ++c) {
      if ((*col_mask)[c]) {
        prefix = false;
        break;
      }
    }
  }

  for (size_t r = 0; r < active_rows; ++r) {
    float* row = m->row_data(r);
    if (!prefix) {
      GeneralMaskedSoftmaxRow(row, cols, scale, *col_mask);
      continue;
    }
    float max_v = -std::numeric_limits<float>::infinity();
    for (size_t c = 0; c < valid_cols; ++c) {
      row[c] *= scale;
      max_v = std::max(max_v, row[c]);
    }
    if (!std::isfinite(max_v)) {
      // Every column masked out (or an infinite score): emit a zero row
      // rather than NaNs.
      ZeroRow(row, cols);
      continue;
    }
    float sum = 0.0f;
    for (size_t c = 0; c < valid_cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < valid_cols; ++c) row[c] *= inv;
    ZeroRow(row + valid_cols, cols - valid_cols);
  }
  for (size_t r = active_rows; r < rows; ++r) {
    ZeroRow(m->row_data(r), cols);
  }
}

void SoftmaxRowsInPlace(Matrix* m, const std::vector<uint8_t>* col_mask,
                        long valid_rows) {
  ScaledMaskedSoftmaxRowsInPlace(m, 1.0f, col_mask, valid_rows);
}

void SoftmaxRowsBackwardInto(const Matrix& probs, const Matrix& grad_probs,
                             Matrix* out) {
  CROWDRL_CHECK(probs.rows() == grad_probs.rows() &&
                probs.cols() == grad_probs.cols());
  CROWDRL_CHECK(out != &probs && out != &grad_probs);
  out->Resize(probs.rows(), probs.cols());
  for (size_t r = 0; r < probs.rows(); ++r) {
    const float* p = probs.row_data(r);
    const float* dp = grad_probs.row_data(r);
    float inner = 0.0f;
    for (size_t c = 0; c < probs.cols(); ++c) inner += p[c] * dp[c];
    float* o = out->row_data(r);
    for (size_t c = 0; c < probs.cols(); ++c) o[c] = p[c] * (dp[c] - inner);
  }
}

Matrix SoftmaxRowsBackward(const Matrix& probs, const Matrix& grad_probs) {
  Matrix out;
  SoftmaxRowsBackwardInto(probs, grad_probs, &out);
  return out;
}

std::vector<double> SoftmaxVector(const std::vector<double>& logits) {
  std::vector<double> out(logits.size());
  if (logits.empty()) return out;
  const double max_v = *std::max_element(logits.begin(), logits.end());
  double sum = 0;
  for (size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - max_v);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

float Dot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  CROWDRL_CHECK(a.size() == b.size());
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0 || nb <= 0) return 0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

namespace reference {

Matrix Matmul(const Matrix& a, const Matrix& b) {
  CROWDRL_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (size_t i = 0; i < m; ++i) {
    float* crow = c.row_data(i);
    const float* arow = a.row_data(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b.row_data(kk);
      for (size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix MatmulTransposeB(const Matrix& a, const Matrix& b) {
  CROWDRL_CHECK_MSG(a.cols() == b.cols(), "matmulTB shape mismatch");
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.row_data(i);
    float* crow = c.row_data(i);
    for (size_t j = 0; j < n; ++j) {
      crow[j] = Dot(arow, b.row_data(j), k);
    }
  }
  return c;
}

Matrix MatmulTransposeA(const Matrix& a, const Matrix& b) {
  CROWDRL_CHECK_MSG(a.rows() == b.rows(), "matmulTA shape mismatch");
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (size_t kk = 0; kk < k; ++kk) {
    const float* arow = a.row_data(kk);
    const float* brow = b.row_data(kk);
    for (size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = c.row_data(i);
      for (size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

void ScaledMaskedSoftmaxRows(Matrix* m, float scale,
                             const std::vector<uint8_t>* col_mask,
                             long valid_rows) {
  const size_t rows = m->rows(), cols = m->cols();
  if (col_mask != nullptr) {
    CROWDRL_CHECK(col_mask->size() == cols);
  }
  const size_t active_rows =
      valid_rows < 0 ? rows : std::min<size_t>(rows, valid_rows);
  for (size_t r = 0; r < rows; ++r) {
    float* row = m->row_data(r);
    for (size_t c = 0; c < cols; ++c) row[c] *= scale;
  }
  for (size_t r = 0; r < active_rows; ++r) {
    float* row = m->row_data(r);
    float max_v = -std::numeric_limits<float>::infinity();
    for (size_t c = 0; c < cols; ++c) {
      if (col_mask && !(*col_mask)[c]) continue;
      max_v = std::max(max_v, row[c]);
    }
    if (!std::isfinite(max_v)) {
      std::fill(row, row + cols, 0.0f);
      continue;
    }
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      if (col_mask && !(*col_mask)[c]) {
        row[c] = 0.0f;
      } else {
        row[c] = std::exp(row[c] - max_v);
        sum += row[c];
      }
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
  for (size_t r = active_rows; r < rows; ++r) {
    float* row = m->row_data(r);
    std::fill(row, row + cols, 0.0f);
  }
}

}  // namespace reference

}  // namespace crowdrl
