#include "nn/attention.h"

#include <cmath>
#include <istream>
#include <ostream>

namespace crowdrl {

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng* rng, bool use_mask)
    : wq_(Matrix::Xavier(dim, dim, rng)),
      wk_(Matrix::Xavier(dim, dim, rng)),
      wv_(Matrix::Xavier(dim, dim, rng)),
      wo_(Matrix::Xavier(dim, dim, rng)),
      num_heads_(num_heads),
      use_mask_(use_mask) {
  CROWDRL_CHECK_MSG(dim % num_heads == 0, "dim must divide into heads");
}

namespace {

/// Extracts the column block [h*hd, (h+1)*hd) of `m` into `out` (resized
/// in place, so a warm destination allocates nothing).
void HeadSliceInto(const Matrix& m, size_t h, size_t hd, Matrix* out) {
  out->Resize(m.rows(), hd);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* src = m.row_data(r) + h * hd;
    float* dst = out->row_data(r);
    for (size_t c = 0; c < hd; ++c) dst[c] = src[c];
  }
}

/// Overwrites the column block h of `m` with `block`.
void SetHeadSlice(Matrix* m, const Matrix& block, size_t h, size_t hd) {
  for (size_t r = 0; r < m->rows(); ++r) {
    float* dst = m->row_data(r) + h * hd;
    const float* src = block.row_data(r);
    for (size_t c = 0; c < hd; ++c) dst[c] = src[c];
  }
}

/// Adds `block` into the column block h of `m`.
void AddHeadSlice(Matrix* m, const Matrix& block, size_t h, size_t hd) {
  for (size_t r = 0; r < m->rows(); ++r) {
    float* dst = m->row_data(r) + h * hd;
    const float* src = block.row_data(r);
    for (size_t c = 0; c < hd; ++c) dst[c] += src[c];
  }
}

/// Zeroes the rows at index >= valid_n.
void ZeroPadRows(Matrix* m, size_t valid_n) {
  for (size_t r = valid_n; r < m->rows(); ++r) {
    float* row = m->row_data(r);
    std::fill(row, row + m->cols(), 0.0f);
  }
}

}  // namespace

void MultiHeadSelfAttention::AttendInto(const Matrix& xq, size_t valid_q,
                                        Cache* cache, Matrix* out) const {
  const size_t n = cache->x.rows();
  const size_t hd = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  MatmulInto(xq, wq_, &cache->q);
  MatmulInto(cache->x, wk_, &cache->k);
  MatmulInto(cache->x, wv_, &cache->v);
  if (cache->probs.size() != num_heads_) cache->probs.resize(num_heads_);
  cache->concat.Resize(xq.rows(), dim());

  if (use_mask_) {
    cache->col_mask.assign(n, 0);
    for (size_t i = 0; i < cache->valid_n; ++i) cache->col_mask[i] = 1;
  }

  for (size_t h = 0; h < num_heads_; ++h) {
    HeadSliceInto(cache->q, h, hd, &cache->qh);
    HeadSliceInto(cache->k, h, hd, &cache->kh);
    HeadSliceInto(cache->v, h, hd, &cache->vh);
    Matrix* scores = &cache->probs[h];
    MatmulTransposeBInto(cache->qh, cache->kh, scores);
    // With masking on, padded columns get zero probability and padded rows
    // produce all-zero distributions; without it we reproduce the paper's
    // raw zero-padding (padding rows still score exp(0) mass).
    ScaledMaskedSoftmaxRowsInPlace(scores, scale,
                                   use_mask_ ? &cache->col_mask : nullptr,
                                   use_mask_ ? static_cast<long>(valid_q)
                                             : -1);
    MatmulInto(*scores, cache->vh, &cache->oh);
    SetHeadSlice(&cache->concat, cache->oh, h, hd);
  }

  MatmulInto(cache->concat, wo_, out);
  if (use_mask_) ZeroPadRows(out, valid_q);
}

void MultiHeadSelfAttention::ForwardInto(const Matrix& x, size_t valid_n,
                                         Cache* cache, Matrix* out) const {
  CROWDRL_CHECK(x.cols() == dim());
  CROWDRL_CHECK(valid_n <= x.rows());
  CROWDRL_CHECK(out != &x);
  cache->x = x;
  cache->valid_n = valid_n;
  cache->query_row = kAllRows;
  AttendInto(cache->x, valid_n, cache, out);
}

void MultiHeadSelfAttention::ForwardRowInto(const Matrix& x, size_t valid_n,
                                            size_t row, Cache* cache,
                                            Matrix* out) const {
  CROWDRL_CHECK(x.cols() == dim());
  CROWDRL_CHECK(valid_n <= x.rows());
  CROWDRL_CHECK(row < x.rows());
  CROWDRL_CHECK(out != &x);
  cache->x = x;
  cache->valid_n = valid_n;
  cache->query_row = row;
  cache->x_row.Resize(1, x.cols());
  cache->x_row.SetRow(0, x, row);
  // A padded query row (masked) is zeroed, as ForwardInto zeroes it.
  AttendInto(cache->x_row, row < valid_n ? 1 : 0, cache, out);
}

Matrix MultiHeadSelfAttention::Forward(const Matrix& x, size_t valid_n,
                                       Cache* cache) const {
  Matrix out;
  ForwardInto(x, valid_n, cache, &out);
  return out;
}

Matrix MultiHeadSelfAttention::Backward(const Matrix& grad_out,
                                        const Cache& cache,
                                        Grads* grads) const {
  BackwardScratch scratch;
  Matrix dx;
  BackwardInto(grad_out, cache,
               {&grads->dwq, &grads->dwk, &grads->dwv, &grads->dwo},
               &scratch, &dx);
  return dx;
}

void MultiHeadSelfAttention::BackwardInto(const Matrix& grad_out,
                                          const Cache& cache,
                                          const GradRefs& grads,
                                          BackwardScratch* s,
                                          Matrix* dx) const {
  const bool all_rows = cache.query_row == kAllRows;
  const Matrix& xq = all_rows ? cache.x : cache.x_row;
  const size_t valid_q =
      all_rows ? cache.valid_n : (cache.query_row < cache.valid_n ? 1 : 0);
  const size_t n = cache.x.rows();
  const size_t hd = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  CROWDRL_CHECK(grad_out.rows() == xq.rows() && grad_out.cols() == dim());

  s->dy = grad_out;
  if (use_mask_) ZeroPadRows(&s->dy, valid_q);

  // out = concat · W_O.
  MatmulTransposeAAccumulate(cache.concat, s->dy, grads.dwo);
  MatmulTransposeBInto(s->dy, wo_, &s->dconcat);

  s->dq.Resize(xq.rows(), dim());
  s->dq.SetZero();
  s->dk.Resize(n, dim());
  s->dk.SetZero();
  s->dv.Resize(n, dim());
  s->dv.SetZero();

  for (size_t h = 0; h < num_heads_; ++h) {
    HeadSliceInto(s->dconcat, h, hd, &s->doh);
    HeadSliceInto(cache.q, h, hd, &s->qh);
    HeadSliceInto(cache.k, h, hd, &s->kh);
    HeadSliceInto(cache.v, h, hd, &s->vh);
    const Matrix& probs = cache.probs[h];

    // o = P·V.
    MatmulTransposeBInto(s->doh, s->vh, &s->dprobs);
    MatmulTransposeAInto(probs, s->doh, &s->dvh);
    // P = softmax(S); rows that were fully masked have P ≡ 0 and the
    // softmax backward then yields exactly 0 — no special-casing needed.
    SoftmaxRowsBackwardInto(probs, s->dprobs, &s->dscores);
    s->dscores *= scale;
    // S = Q·Kᵀ (pre-scale): dQ = dS·K, dK = dSᵀ·Q.
    MatmulInto(s->dscores, s->kh, &s->dqh);
    MatmulTransposeAInto(s->dscores, s->qh, &s->dkh);

    AddHeadSlice(&s->dq, s->dqh, h, hd);
    AddHeadSlice(&s->dk, s->dkh, h, hd);
    AddHeadSlice(&s->dv, s->dvh, h, hd);
  }

  MatmulTransposeAAccumulate(xq, s->dq, grads.dwq);
  MatmulTransposeAAccumulate(cache.x, s->dk, grads.dwk);
  MatmulTransposeAAccumulate(cache.x, s->dv, grads.dwv);

  // dX = dQ·W_Qᵀ + dK·W_Kᵀ + dV·W_Vᵀ, where dQ covers the query rows only.
  // (b + a) + c is bit-identical to (a + b) + c: float addition commutes.
  MatmulTransposeBInto(s->dk, wk_, dx);
  MatmulTransposeBInto(s->dq, wq_, &s->projected);
  if (all_rows) {
    *dx += s->projected;
  } else {
    dx->AddToRow(cache.query_row, s->projected);
  }
  MatmulTransposeBInto(s->dv, wv_, &s->projected);
  *dx += s->projected;
}

MultiHeadSelfAttention::Grads MultiHeadSelfAttention::MakeGrads() const {
  Grads g;
  g.dwq = Matrix(wq_.rows(), wq_.cols());
  g.dwk = Matrix(wk_.rows(), wk_.cols());
  g.dwv = Matrix(wv_.rows(), wv_.cols());
  g.dwo = Matrix(wo_.rows(), wo_.cols());
  return g;
}

Status MultiHeadSelfAttention::Save(std::ostream* os) const {
  CROWDRL_RETURN_NOT_OK(wq_.Save(os));
  CROWDRL_RETURN_NOT_OK(wk_.Save(os));
  CROWDRL_RETURN_NOT_OK(wv_.Save(os));
  CROWDRL_RETURN_NOT_OK(wo_.Save(os));
  uint64_t meta[2] = {num_heads_, use_mask_ ? 1ULL : 0ULL};
  os->write(reinterpret_cast<const char*>(meta), sizeof(meta));
  if (!os->good()) return Status::IoError("attention write failed");
  return Status::OK();
}

Status MultiHeadSelfAttention::Load(std::istream* is) {
  CROWDRL_ASSIGN_OR_RETURN(wq_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(wk_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(wv_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(wo_, Matrix::Load(is));
  uint64_t meta[2];
  is->read(reinterpret_cast<char*>(meta), sizeof(meta));
  if (!is->good()) return Status::IoError("attention read failed");
  // A truncated or corrupted checkpoint must not install an inconsistent
  // layer: zero heads divides by zero in head_dim(), a non-dividing head
  // count slices out of bounds, and mismatched weight shapes break every
  // matmul downstream. Reject here instead.
  const size_t d = wq_.rows();
  if (wq_.cols() != d || wk_.rows() != d || wk_.cols() != d ||
      wv_.rows() != d || wv_.cols() != d || wo_.rows() != d ||
      wo_.cols() != d) {
    return Status::IoError("attention checkpoint has mismatched weights");
  }
  if (meta[0] == 0 || meta[0] > d || d % meta[0] != 0) {
    return Status::IoError("attention checkpoint has invalid head count");
  }
  if (meta[1] > 1) {
    return Status::IoError("attention checkpoint has invalid mask flag");
  }
  num_heads_ = meta[0];
  use_mask_ = meta[1] != 0;
  return Status::OK();
}

}  // namespace crowdrl
