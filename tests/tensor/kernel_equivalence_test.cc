// The tolerance ladder of the optimized kernels (see src/tensor/ops.h):
// randomized equivalence of every kernel against the retained scalar
// reference implementations, at the tier the kernel promises —
//
//  * bit-exact:      Matmul, MatmulTransposeA, MatmulTransposeAAccumulate
//                    (against the in-order scalar loops), MatmulTransposeB
//                    (against the four-lane blocked dot reduction, which
//                    perfbench's recorded quality rows depend on) and the
//                    fused scale+mask+softmax — scalar build only: the AVX2
//                    build fuses multiply-adds, so it drops to
//                    bounded-epsilon
//  * bounded-epsilon: MatmulTransposeB against the sequential dot, and
//                    every kernel under CROWDRL_ENABLE_AVX2
//
// plus the IEEE NaN/Inf-propagation regression the old zero-skip broke.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "tensor/ops.h"

namespace crowdrl {
namespace {

// Bounded-epsilon bound: |Σ| error grows with the reduction length k.
float EpsFor(size_t k) { return 1e-5f * static_cast<float>(k); }

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      // memcmp-style comparison: distinguishes ±0 and compares NaN bits —
      // what "kept the scalar reduction order" actually promises.
      const float av = a(r, c), bv = b(r, c);
      if (std::memcmp(&av, &bv, sizeof(float)) != 0) return false;
    }
  }
  return true;
}

void ExpectTier(const Matrix& kernel, const Matrix& ref, size_t k,
                bool bit_exact_tier) {
  if (bit_exact_tier && !KernelUsesAvx2()) {
    EXPECT_TRUE(BitIdentical(kernel, ref))
        << "max abs diff " << Matrix::MaxAbsDiff(kernel, ref);
  } else {
    EXPECT_TRUE(Matrix::AllClose(kernel, ref, EpsFor(k)))
        << "max abs diff " << Matrix::MaxAbsDiff(kernel, ref);
  }
}

TEST(KernelEquivalenceTest, MatmulMatchesReferenceAcrossShapes) {
  Rng rng(101);
  // Shapes straddle every blocking boundary: i % 4 remainders, j tails
  // around the 8-wide vector width, k from 1 up.
  const size_t dims[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33};
  for (size_t m : dims) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{8}, size_t{17}}) {
      for (size_t n : {size_t{1}, size_t{5}, size_t{8}, size_t{19}}) {
        Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
        Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
        ExpectTier(Matmul(a, b), reference::Matmul(a, b), k,
                   /*bit_exact_tier=*/true);
      }
    }
    SCOPED_TRACE(m);
  }
}

/// A copy of the blocked dot reduction MatmulTransposeB has always used on
/// the scalar build: four independent lane sums over k in steps of 4, then
/// (s0 + s1) + (s2 + s3), then the sequential tail.
Matrix FourLaneMatmulTransposeB(const Matrix& a, const Matrix& b) {
  const size_t k = a.cols();
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      const float* x = a.row_data(i);
      const float* y = b.row_data(j);
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      size_t t = 0;
      for (; t + 4 <= k; t += 4) {
        s0 += x[t] * y[t];
        s1 += x[t + 1] * y[t + 1];
        s2 += x[t + 2] * y[t + 2];
        s3 += x[t + 3] * y[t + 3];
      }
      float out = (s0 + s1) + (s2 + s3);
      for (; t < k; ++t) out += x[t] * y[t];
      c(i, j) = out;
    }
  }
  return c;
}

/// C₀ + Aᵀ·B accumulated element by element in k order, onto C₀.
Matrix InOrderTransposeAAccumulate(const Matrix& a, const Matrix& b,
                                   Matrix c) {
  for (size_t kk = 0; kk < a.rows(); ++kk) {
    for (size_t i = 0; i < a.cols(); ++i) {
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += a(kk, i) * b(kk, j);
    }
  }
  return c;
}

// Every size on both sides of the register-tile edges: 4-row blocks,
// 8-column tiles, the 32-column tiles of a lone row, and the blocked dot's
// four-lane (eight under AVX2) steps.
constexpr size_t kTileM[] = {1, 3, 4, 5, 8, 15, 16, 17};
constexpr size_t kTileN[] = {1, 7, 8, 9, 16, 17, 40, 64, 65};
constexpr size_t kTileK[] = {1, 3, 4, 5, 16, 74};

TEST(KernelEquivalenceTest, TiledKernelsMatchAcrossTileEdges) {
  Rng rng(109);
  for (size_t m : kTileM) {
    for (size_t n : kTileN) {
      for (size_t k : kTileK) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " k=" + std::to_string(k));
        Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
        Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
        ExpectTier(Matmul(a, b), reference::Matmul(a, b), k,
                   /*bit_exact_tier=*/true);

        Matrix at = Matrix::Uniform(k, m, &rng, -2.0f, 2.0f);
        ExpectTier(MatmulTransposeA(at, b), reference::MatmulTransposeA(at, b),
                   k, /*bit_exact_tier=*/true);
        Matrix c0 = Matrix::Uniform(m, n, &rng, -2.0f, 2.0f);
        Matrix acc = c0;
        MatmulTransposeAAccumulate(at, b, &acc);
        ExpectTier(acc, InOrderTransposeAAccumulate(at, b, c0), k,
                   /*bit_exact_tier=*/true);

        Matrix bt = Matrix::Uniform(n, k, &rng, -2.0f, 2.0f);
        const Matrix tb = MatmulTransposeB(a, bt);
        ExpectTier(tb, FourLaneMatmulTransposeB(a, bt), k,
                   /*bit_exact_tier=*/true);
        ExpectTier(tb, reference::MatmulTransposeB(a, bt), k,
                   /*bit_exact_tier=*/false);
      }
    }
  }
}

TEST(KernelEquivalenceTest, MatmulTransposeBMatchesReference) {
  Rng rng(102);
  for (size_t m : {size_t{1}, size_t{4}, size_t{9}, size_t{31}}) {
    for (size_t k : {size_t{1}, size_t{4}, size_t{8}, size_t{13}, size_t{64}}) {
      for (size_t n : {size_t{1}, size_t{6}, size_t{17}}) {
        Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
        Matrix b = Matrix::Uniform(n, k, &rng, -2.0f, 2.0f);
        // Bounded-epsilon against the sequential dot (the reduction is
        // reassociated); bit-exact against the four-lane reduction.
        ExpectTier(MatmulTransposeB(a, b), reference::MatmulTransposeB(a, b),
                   k, /*bit_exact_tier=*/false);
        ExpectTier(MatmulTransposeB(a, b), FourLaneMatmulTransposeB(a, b), k,
                   /*bit_exact_tier=*/true);
      }
    }
  }
}

TEST(KernelEquivalenceTest, MatmulTransposeAMatchesReference) {
  Rng rng(103);
  for (size_t k : {size_t{1}, size_t{5}, size_t{16}, size_t{33}}) {
    for (size_t m : {size_t{1}, size_t{4}, size_t{7}, size_t{12}}) {
      for (size_t n : {size_t{1}, size_t{8}, size_t{21}}) {
        Matrix a = Matrix::Uniform(k, m, &rng, -2.0f, 2.0f);
        Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
        ExpectTier(MatmulTransposeA(a, b), reference::MatmulTransposeA(a, b),
                   k, /*bit_exact_tier=*/true);
      }
    }
  }
}

TEST(KernelEquivalenceTest, MatmulTransposeAAccumulateAddsOntoDestination) {
  Rng rng(104);
  Matrix a = Matrix::Uniform(9, 6, &rng);
  Matrix b = Matrix::Uniform(9, 11, &rng);
  Matrix c0 = Matrix::Uniform(6, 11, &rng);
  Matrix c = c0;
  MatmulTransposeAAccumulate(a, b, &c);
  Matrix expected = c0;
  expected += reference::MatmulTransposeA(a, b);
  // Interleaved accumulation reassociates relative to add-after-multiply,
  // but matches accumulating onto C₀ in k order exactly.
  EXPECT_TRUE(Matrix::AllClose(c, expected, EpsFor(a.rows())));
  ExpectTier(c, InOrderTransposeAAccumulate(a, b, c0), a.rows(),
             /*bit_exact_tier=*/true);
}

TEST(KernelEquivalenceTest, IntoFormsReuseDestinationAcrossShapes) {
  Rng rng(105);
  Matrix c;
  // Shrinking then growing within capacity must yield the same results as
  // a fresh destination each time.
  for (size_t m : {size_t{12}, size_t{3}, size_t{8}}) {
    Matrix a = Matrix::Uniform(m, 7, &rng);
    Matrix b = Matrix::Uniform(7, m + 2, &rng);
    MatmulInto(a, b, &c);
    ExpectTier(c, reference::Matmul(a, b), 7, /*bit_exact_tier=*/true);
  }
}

TEST(KernelEquivalenceTest, MatmulPropagatesNaNThroughZeroRows) {
  // Regression for the removed `if (aik == 0.0f) continue;` zero-skip:
  // IEEE demands 0×NaN = NaN, so a NaN anywhere in B must surface even
  // when the matching A entry is zero — that is how corrupted weights get
  // detected instead of sailing through zero-padded rows.
  Matrix a = Matrix::FromRows({{0.0f, 1.0f}});
  Matrix b = Matrix::FromRows({{std::nanf(""), 0.0f},
                               {1.0f, 2.0f}});
  Matrix c = Matmul(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
  EXPECT_FLOAT_EQ(c(0, 1), 2.0f);

  // 0 × Inf must also poison the sum (IEEE: 0·∞ = NaN).
  Matrix binf = Matrix::FromRows({{std::numeric_limits<float>::infinity()},
                                  {1.0f}});
  Matrix cinf = Matmul(a, binf);
  EXPECT_TRUE(std::isnan(cinf(0, 0)));
}

TEST(KernelEquivalenceTest, MatmulTransposeAPropagatesNaN) {
  Matrix a = Matrix::FromRows({{0.0f}, {1.0f}});           // 2×1
  Matrix b = Matrix::FromRows({{std::nanf("")}, {3.0f}});  // 2×1
  Matrix c = MatmulTransposeA(a, b);  // 1×1: 0·NaN + 1·3
  EXPECT_TRUE(std::isnan(c(0, 0)));
}

TEST(KernelEquivalenceTest, MatmulTransposeBPropagatesNaN) {
  Matrix a = Matrix::FromRows({{0.0f, 1.0f}});
  Matrix b = Matrix::FromRows({{std::nanf(""), 5.0f}});
  Matrix c = MatmulTransposeB(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
}

// ---- fused scale+mask+softmax vs. unfused reference ----

void ExpectSoftmaxMatches(Matrix m, float scale,
                          const std::vector<uint8_t>* mask, long valid_rows,
                          size_t k) {
  Matrix ref = m;
  ScaledMaskedSoftmaxRowsInPlace(&m, scale, mask, valid_rows);
  reference::ScaledMaskedSoftmaxRows(&ref, scale, mask, valid_rows);
  if (!KernelUsesAvx2()) {
    EXPECT_TRUE(BitIdentical(m, ref))
        << "max abs diff " << Matrix::MaxAbsDiff(m, ref);
  } else {
    EXPECT_TRUE(Matrix::AllClose(m, ref, EpsFor(k)));
  }
}

TEST(KernelEquivalenceTest, FusedSoftmaxMatchesReferenceUnmasked) {
  Rng rng(106);
  for (size_t n : {size_t{1}, size_t{4}, size_t{9}, size_t{33}}) {
    ExpectSoftmaxMatches(Matrix::Uniform(n, n, &rng, -3.0f, 3.0f), 0.37f,
                         nullptr, -1, n);
  }
}

TEST(KernelEquivalenceTest, FusedSoftmaxMatchesReferencePrefixMask) {
  Rng rng(107);
  for (size_t n : {size_t{5}, size_t{12}}) {
    for (size_t valid : {size_t{0}, size_t{1}, n / 2, n}) {
      std::vector<uint8_t> mask(n, 0);
      for (size_t i = 0; i < valid; ++i) mask[i] = 1;
      ExpectSoftmaxMatches(Matrix::Uniform(n, n, &rng, -3.0f, 3.0f), 0.5f,
                           &mask, static_cast<long>(valid), n);
    }
  }
}

TEST(KernelEquivalenceTest, FusedSoftmaxMatchesReferenceGeneralMask) {
  // Non-prefix masks exercise the fallback path.
  Rng rng(108);
  std::vector<uint8_t> mask = {1, 0, 1, 1, 0, 1};
  ExpectSoftmaxMatches(Matrix::Uniform(6, 6, &rng, -2.0f, 2.0f), 1.3f, &mask,
                       4, 6);
}

TEST(KernelEquivalenceTest, FusedSoftmaxFullyMaskedRowsAreZero) {
  Matrix m = Matrix::FromRows({{3.0f, -1.0f}, {0.5f, 0.5f}});
  std::vector<uint8_t> mask = {0, 0};
  ScaledMaskedSoftmaxRowsInPlace(&m, 0.7f, &mask, -1);
  EXPECT_FALSE(m.HasNonFinite());
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
}

TEST(KernelEquivalenceTest, FusedSoftmaxAppliesScaleBeforeNormalizing) {
  // softmax(scale·x) computed directly: check against a hand expansion.
  Matrix m = Matrix::FromRows({{0.0f, 2.0f}});
  ScaledMaskedSoftmaxRowsInPlace(&m, 0.5f, nullptr, -1);
  const double e = std::exp(1.0);  // scale·2 = 1
  EXPECT_NEAR(m(0, 1), e / (1.0 + e), 1e-6);
  EXPECT_NEAR(m(0, 0) + m(0, 1), 1.0, 1e-6);
}

}  // namespace
}  // namespace crowdrl
