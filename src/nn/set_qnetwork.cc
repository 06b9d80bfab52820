#include "nn/set_qnetwork.h"

#include <fstream>

namespace crowdrl {

SetQNetwork::SetQNetwork(const SetQNetworkConfig& config, Rng* rng)
    : config_(config),
      rff1_(config.input_dim, config.hidden_dim, Linear::Activation::kRelu,
            rng),
      rff2_(config.hidden_dim, config.hidden_dim, Linear::Activation::kRelu,
            rng),
      rff3_(config.hidden_dim, config.hidden_dim, Linear::Activation::kRelu,
            rng),
      out_(config.hidden_dim, 1, Linear::Activation::kIdentity, rng),
      attn1_(config.hidden_dim, config.num_heads, rng,
             config.masked_attention),
      attn2_(config.hidden_dim, config.num_heads, rng,
             config.masked_attention) {
  CROWDRL_CHECK(config.input_dim > 0);
  CROWDRL_CHECK(config.hidden_dim % config.num_heads == 0);
}

const Matrix& SetQNetwork::ForwardInto(const Matrix& x, size_t valid_n,
                                       Cache* c) const {
  CROWDRL_CHECK(x.cols() == config_.input_dim);
  CROWDRL_CHECK(valid_n <= x.rows());
  c->x = x;
  c->valid_n = valid_n;
  c->query_row = MultiHeadSelfAttention::kAllRows;
  return ForwardCached(c);
}

float SetQNetwork::ForwardAction(const Matrix& x, size_t valid_n,
                                 size_t action_row, Cache* c) const {
  CROWDRL_CHECK(x.cols() == config_.input_dim);
  CROWDRL_CHECK(valid_n <= x.rows());
  CROWDRL_CHECK(action_row < x.rows());
  if (config_.use_attention) {
    c->x = x;
    c->valid_n = valid_n;
    c->query_row = action_row;
  } else {
    // Every layer is row-wise, so Q(s, a) reads row a alone.
    c->x.Resize(1, x.cols());
    c->x.SetRow(0, x, action_row);
    c->valid_n = 1;
    c->query_row = MultiHeadSelfAttention::kAllRows;
  }
  return ForwardCached(c)(0, 0);
}

const Matrix& SetQNetwork::ForwardCached(Cache* c) const {
  const bool all_rows = c->query_row == MultiHeadSelfAttention::kAllRows;
  rff1_.ForwardInto(c->x, &c->pre1, &c->h1);
  rff2_.ForwardInto(c->h1, &c->pre2, &c->h2);
  if (config_.use_attention) {
    attn1_.ForwardInto(c->h2, c->valid_n, &c->attn1, &c->a1);
    c->r1 = c->h2;
    c->r1 += c->a1;
  } else {
    c->r1 = c->h2;  // per-task ablation: no cross-task interaction
  }
  rff3_.ForwardInto(c->r1, &c->pre3, &c->h3);
  if (config_.use_attention) {
    if (all_rows) {
      attn2_.ForwardInto(c->h3, c->valid_n, &c->attn2, &c->a2);
      c->r2 = c->h3;
    } else {
      attn2_.ForwardRowInto(c->h3, c->valid_n, c->query_row, &c->attn2,
                            &c->a2);
      c->r2.Resize(1, c->h3.cols());
      c->r2.SetRow(0, c->h3, c->query_row);
    }
    c->r2 += c->a2;
  } else {
    c->r2 = c->h3;
  }
  out_.ForwardInto(c->r2, &c->pre_out, &c->q_out);
  return c->q_out;
}

Matrix SetQNetwork::Forward(const Matrix& x, size_t valid_n,
                            Cache* cache) const {
  Cache local;
  Cache* c = cache != nullptr ? cache : &local;
  return ForwardInto(x, valid_n, c);
}

std::vector<double> SetQNetwork::QValues(const Matrix& x,
                                         size_t valid_n) const {
  Cache cache;
  std::vector<double> out;
  QValuesInto(x, valid_n, &cache, &out);
  return out;
}

void SetQNetwork::QValuesInto(const Matrix& x, size_t valid_n, Cache* cache,
                              std::vector<double>* out) const {
  const Matrix& q = ForwardInto(x, valid_n, cache);
  out->resize(valid_n);
  for (size_t i = 0; i < valid_n; ++i) (*out)[i] = q(i, 0);
}

void SetQNetwork::Backward(const Matrix& grad_q, const Cache& cache,
                           Gradients* grads) const {
  BackwardScratch scratch;
  BackwardInto(grad_q, cache, &scratch, grads);
}

void SetQNetwork::BackwardInto(const Matrix& grad_q, const Cache& cache,
                               BackwardScratch* s, Gradients* grads) const {
  CROWDRL_CHECK(grads->g.size() == 16);
  std::vector<Matrix>& g = grads->g;
  // Gradient store layout (must match Params()):
  //  0: rff1.W  1: rff1.b   2: rff2.W  3: rff2.b
  //  4..7:  attn1 {Wq, Wk, Wv, Wo}
  //  8: rff3.W  9: rff3.b
  // 10..13: attn2 {Wq, Wk, Wv, Wo}
  // 14: out.W 15: out.b
  out_.BackwardInto(cache.r2, cache.pre_out, grad_q, &g[14], &g[15], &s->dz,
                    &s->dr2);
  const Matrix* dh3 = &s->dr2;
  if (config_.use_attention) {
    // R2 = H3 + MHSA2(H3): gradient flows through both branches; the
    // residual branch reaches the query rows only.
    attn2_.BackwardInto(s->dr2, cache.attn2, {&g[10], &g[11], &g[12], &g[13]},
                        &s->attn, &s->dh3);
    if (cache.query_row == MultiHeadSelfAttention::kAllRows) {
      s->dh3 += s->dr2;
    } else {
      s->dh3.AddToRow(cache.query_row, s->dr2);
    }
    dh3 = &s->dh3;
  }

  rff3_.BackwardInto(cache.r1, cache.pre3, *dh3, &g[8], &g[9], &s->dz,
                     &s->dr1);
  const Matrix* dh2 = &s->dr1;
  if (config_.use_attention) {
    attn1_.BackwardInto(s->dr1, cache.attn1, {&g[4], &g[5], &g[6], &g[7]},
                        &s->attn, &s->dh2);
    s->dh2 += s->dr1;
    dh2 = &s->dh2;
  }

  rff2_.BackwardInto(cache.h1, cache.pre2, *dh2, &g[2], &g[3], &s->dz,
                     &s->dh1);
  rff1_.BackwardInto(cache.x, cache.pre1, s->dh1, &g[0], &g[1], &s->dz,
                     /*dx=*/nullptr);
}

SetQNetwork::Gradients SetQNetwork::MakeGradients() const {
  Gradients grads;
  for (const Matrix* p : Params()) {
    grads.g.emplace_back(p->rows(), p->cols());
  }
  return grads;
}

std::vector<Matrix*> SetQNetwork::Params() {
  return {&rff1_.weights(), &rff1_.bias(),
          &rff2_.weights(), &rff2_.bias(),
          &attn1_.wq(),     &attn1_.wk(),
          &attn1_.wv(),     &attn1_.wo(),
          &rff3_.weights(), &rff3_.bias(),
          &attn2_.wq(),     &attn2_.wk(),
          &attn2_.wv(),     &attn2_.wo(),
          &out_.weights(),  &out_.bias()};
}

std::vector<const Matrix*> SetQNetwork::Params() const {
  auto* self = const_cast<SetQNetwork*>(this);
  std::vector<const Matrix*> out;
  for (Matrix* p : self->Params()) out.push_back(p);
  return out;
}

void SetQNetwork::CopyFrom(const SetQNetwork& other) {
  auto dst = Params();
  auto src = other.Params();
  CROWDRL_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) *dst[i] = *src[i];
}

size_t SetQNetwork::NumParameters() const {
  size_t n = 0;
  for (const Matrix* p : Params()) n += p->size();
  return n;
}

Status SetQNetwork::Save(std::ostream* os) const {
  uint64_t meta[5] = {config_.input_dim, config_.hidden_dim,
                      config_.num_heads,
                      config_.masked_attention ? 1ULL : 0ULL,
                      config_.use_attention ? 1ULL : 0ULL};
  os->write(reinterpret_cast<const char*>(meta), sizeof(meta));
  CROWDRL_RETURN_NOT_OK(rff1_.Save(os));
  CROWDRL_RETURN_NOT_OK(rff2_.Save(os));
  CROWDRL_RETURN_NOT_OK(attn1_.Save(os));
  CROWDRL_RETURN_NOT_OK(rff3_.Save(os));
  CROWDRL_RETURN_NOT_OK(attn2_.Save(os));
  CROWDRL_RETURN_NOT_OK(out_.Save(os));
  if (!os->good()) return Status::IoError("qnetwork write failed");
  return Status::OK();
}

Status SetQNetwork::Load(std::istream* is) {
  uint64_t meta[5];
  is->read(reinterpret_cast<char*>(meta), sizeof(meta));
  if (!is->good()) return Status::IoError("qnetwork header read failed");
  // Validate before installing: a corrupt header with zero dims or a head
  // count that does not divide hidden_dim would CHECK-crash or slice out
  // of bounds at first use instead of failing the load cleanly.
  if (meta[0] == 0 || meta[1] == 0 || meta[2] == 0 || meta[1] % meta[2] != 0 ||
      meta[3] > 1 || meta[4] > 1) {
    return Status::IoError("qnetwork header is invalid");
  }
  config_.input_dim = meta[0];
  config_.hidden_dim = meta[1];
  config_.num_heads = meta[2];
  config_.masked_attention = meta[3] != 0;
  config_.use_attention = meta[4] != 0;
  CROWDRL_RETURN_NOT_OK(rff1_.Load(is));
  CROWDRL_RETURN_NOT_OK(rff2_.Load(is));
  CROWDRL_RETURN_NOT_OK(attn1_.Load(is));
  CROWDRL_RETURN_NOT_OK(rff3_.Load(is));
  CROWDRL_RETURN_NOT_OK(attn2_.Load(is));
  CROWDRL_RETURN_NOT_OK(out_.Load(is));
  return Status::OK();
}

Status SetQNetwork::SaveToFile(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IoError("cannot open " + path);
  return Save(&f);
}

Status SetQNetwork::LoadFromFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IoError("cannot open " + path);
  return Load(&f);
}

}  // namespace crowdrl
