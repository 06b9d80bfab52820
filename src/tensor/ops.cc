#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#ifdef CROWDRL_HAVE_AVX2
#include <immintrin.h>
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

// One SIMD register of floats. Every kernel below is written against these
// few helpers, so the portable and the AVX2 build share one body per
// kernel. Per lane, MulAdd is the scalar loop's `acc + a·b`: two roundings
// (product, then sum) in the portable build, one fused multiply-add under
// AVX2.
#ifdef CROWDRL_HAVE_AVX2
using Lanes = __m256;
constexpr size_t kLanes = 8;
inline Lanes ZeroLanes() { return _mm256_setzero_ps(); }
inline Lanes Splat(float a) { return _mm256_set1_ps(a); }
inline Lanes LoadLanes(const float* p) { return _mm256_loadu_ps(p); }
inline void StoreLanes(float* p, Lanes v) { _mm256_storeu_ps(p, v); }
inline Lanes MulAdd(Lanes acc, Lanes a, Lanes b) {
  return _mm256_fmadd_ps(a, b, acc);
}
/// Horizontal sum of the eight partial sums of a blocked dot product.
inline float SumLanes(Lanes v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}
#else
// A GCC/Clang vector of four floats: element-wise IEEE arithmetic that
// the compiler lowers to SSE (or whatever the target has, down to plain
// scalar code), with the accumulators held in registers — plain float
// arrays of the same shape get spilled to the stack on every k step.
typedef float Lanes __attribute__((vector_size(16)));
constexpr size_t kLanes = 4;
inline Lanes ZeroLanes() { return Lanes{0.0f, 0.0f, 0.0f, 0.0f}; }
inline Lanes Splat(float a) { return Lanes{a, a, a, a}; }
inline Lanes LoadLanes(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreLanes(float* p, Lanes v) { std::memcpy(p, &v, sizeof(v)); }
inline Lanes MulAdd(Lanes acc, Lanes a, Lanes b) { return acc + a * b; }
/// The fixed four-lane combine of a blocked dot product.
inline float SumLanes(Lanes v) { return (v[0] + v[1]) + (v[2] + v[3]); }
#endif

/// One R×W register tile of a matrix product, shared by MatmulInto (C = A·B,
/// accumulators start at zero) and the Aᵀ·B kernels (C += Aᵀ·B, they start
/// from C's contents; `kTransA` reads A(kk, i) instead of A(i, kk)).
/// The tile's C elements stay in accumulators across the whole k loop, so
/// each is loaded (or zeroed) once and stored once, and each B row segment
/// is read once per R rows. Per element the update sequence is exactly the
/// scalar loop's — acc ← acc + a·b for k ascending — so moving the partial
/// sums into registers changes no rounding step. W = 1 is the column tail,
/// kept in plain floats.
template <size_t R, size_t W, bool kTransA>
inline void ProductTile(const Matrix& a, const Matrix& b, Matrix* c,
                        size_t i0, size_t j0, size_t k) {
  float* crow[R];
  for (size_t r = 0; r < R; ++r) crow[r] = c->row_data(i0 + r) + j0;
  const auto a_at = [&](size_t r, size_t kk) {
    return kTransA ? a.row_data(kk)[i0 + r] : a.row_data(i0 + r)[kk];
  };
  if constexpr (W == 1) {
    float acc[R];
    for (size_t r = 0; r < R; ++r) acc[r] = kTransA ? crow[r][0] : 0.0f;
    for (size_t kk = 0; kk < k; ++kk) {
      const float bv = b.row_data(kk)[j0];
      for (size_t r = 0; r < R; ++r) acc[r] += a_at(r, kk) * bv;
    }
    for (size_t r = 0; r < R; ++r) crow[r][0] = acc[r];
  } else {
    static_assert(W % kLanes == 0, "tile width must be whole registers");
    constexpr size_t V = W / kLanes;
    Lanes acc[R][V];
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = kTransA ? LoadLanes(crow[r] + v * kLanes) : ZeroLanes();
      }
    }
    for (size_t kk = 0; kk < k; ++kk) {
      const float* brow = b.row_data(kk) + j0;
      for (size_t r = 0; r < R; ++r) {
        const Lanes av = Splat(a_at(r, kk));
        for (size_t v = 0; v < V; ++v) {
          acc[r][v] = MulAdd(acc[r][v], av, LoadLanes(brow + v * kLanes));
        }
      }
    }
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < V; ++v) {
        StoreLanes(crow[r] + v * kLanes, acc[r][v]);
      }
    }
  }
}

/// Covers rows [i0, i0+R) of the m×n product: 8-wide tiles, then one-column
/// tails. A lone row (R = 1) first takes 32-wide tiles, so it still keeps
/// enough independent accumulators in flight to hide the add latency.
template <size_t R, bool kTransA>
inline void ProductRowBlock(const Matrix& a, const Matrix& b, Matrix* c,
                            size_t i0, size_t n, size_t k) {
  size_t j = 0;
  if constexpr (R == 1) {
    for (; j + 32 <= n; j += 32) ProductTile<1, 32, kTransA>(a, b, c, i0, j, k);
  }
  for (; j + 8 <= n; j += 8) ProductTile<R, 8, kTransA>(a, b, c, i0, j, k);
  for (; j < n; ++j) ProductTile<R, 1, kTransA>(a, b, c, i0, j, k);
}

/// The tiled product both bit-exact matmuls run: 4-row blocks, then a
/// one-row tail. `*c` must already have the product's shape.
template <bool kTransA>
void TiledProduct(const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t m = kTransA ? a.cols() : a.rows();
  const size_t k = kTransA ? a.rows() : a.cols();
  const size_t n = b.cols();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) ProductRowBlock<4, kTransA>(a, b, c, i, n, k);
  for (; i < m; ++i) ProductRowBlock<1, kTransA>(a, b, c, i, n, k);
}

/// Q dot products a·b[q] at once, each with a reassociated reduction:
/// kLanes independent partial sums so the k loop vectorizes, combined by
/// SumLanes, then a sequential tail. Sharing the loads of `a` across Q
/// outputs changes no output's operation sequence, so Q = 4 and Q = 1 give
/// the same bits. (A float reduction cannot vectorize in order, so this is
/// bounded-epsilon against the sequential Dot.)
template <size_t Q>
inline void DotBlocked(const float* a, const float* const* b, size_t n,
                       float* out) {
  Lanes acc[Q];
  for (size_t q = 0; q < Q; ++q) acc[q] = ZeroLanes();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const Lanes va = LoadLanes(a + i);
    for (size_t q = 0; q < Q; ++q) {
      acc[q] = MulAdd(acc[q], va, LoadLanes(b[q] + i));
    }
  }
  for (size_t q = 0; q < Q; ++q) {
    float sum = SumLanes(acc[q]);
    for (size_t t = i; t < n; ++t) sum += a[t] * b[q][t];
    out[q] = sum;
  }
}

}  // namespace

void MatmulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CROWDRL_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.rows(), b.cols());
  TiledProduct</*kTransA=*/false>(a, b, c);
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulInto(a, b, &c);
  return c;
}

void MatmulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CROWDRL_CHECK_MSG(a.cols() == b.cols(), "matmulTB shape mismatch");
  CROWDRL_CHECK(c != &a && c != &b);
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  c->Resize(m, n);
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

Matrix MatmulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulTransposeBInto(a, b, &c);
  return c;
}

void MatmulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CROWDRL_CHECK_MSG(a.rows() == b.rows(), "matmulTA shape mismatch");
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.cols(), b.cols());
  c->SetZero();
  TiledProduct</*kTransA=*/true>(a, b, c);
}

Matrix MatmulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulTransposeAInto(a, b, &c);
  return c;
}

void MatmulTransposeAAccumulate(const Matrix& a, const Matrix& b, Matrix* c) {
  CROWDRL_CHECK_MSG(a.rows() == b.rows(), "matmulTA shape mismatch");
  CROWDRL_CHECK(c->rows() == a.cols() && c->cols() == b.cols());
  CROWDRL_CHECK(c != &a && c != &b);
  TiledProduct</*kTransA=*/true>(a, b, c);
}

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
