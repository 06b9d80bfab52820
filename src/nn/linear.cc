#include "nn/linear.h"

#include <istream>
#include <ostream>

namespace crowdrl {

void Linear::ForwardInto(const Matrix& x, Matrix* pre_activation,
                         Matrix* out) const {
  CROWDRL_CHECK(out != &x && out != pre_activation);
  MatmulInto(x, w_, out);
  out->AddRowBroadcast(b_);
  if (pre_activation != nullptr) *pre_activation = *out;
  if (act_ == Activation::kRelu) {
    float* d = out->data();
    for (size_t i = 0; i < out->size(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  }
}

Matrix Linear::Forward(const Matrix& x, Matrix* pre_activation) const {
  Matrix out;
  ForwardInto(x, pre_activation, &out);
  return out;
}

Matrix Linear::Backward(const Matrix& x, const Matrix& pre_activation,
                        const Matrix& grad_out, Matrix* dw, Matrix* db) const {
  Matrix dz, dx;
  BackwardInto(x, pre_activation, grad_out, dw, db, &dz, &dx);
  return dx;
}

void Linear::BackwardInto(const Matrix& x, const Matrix& pre_activation,
                          const Matrix& grad_out, Matrix* dw, Matrix* db,
                          Matrix* dz, Matrix* dx) const {
  CROWDRL_CHECK(dw->rows() == w_.rows() && dw->cols() == w_.cols());
  CROWDRL_CHECK(db->rows() == 1 && db->cols() == b_.cols());
  CROWDRL_CHECK(pre_activation.rows() == grad_out.rows() &&
                pre_activation.cols() == grad_out.cols());
  CROWDRL_CHECK(dz != &grad_out && dz != dx);
  *dz = grad_out;
  if (act_ == Activation::kRelu) {
    // dz ∘= ReluMask(pre): a multiply by 1 or 0, as the mask product does.
    float* d = dz->data();
    const float* pre = pre_activation.data();
    for (size_t i = 0; i < dz->size(); ++i) {
      d[i] *= pre[i] > 0.0f ? 1.0f : 0.0f;
    }
  }
  // dW += xᵀ · dz ; db += column-sum(dz) ; dx = dz · Wᵀ.
  MatmulTransposeAAccumulate(x, *dz, dw);
  for (size_t r = 0; r < dz->rows(); ++r) {
    const float* row = dz->row_data(r);
    float* acc = db->row_data(0);
    for (size_t c = 0; c < dz->cols(); ++c) acc[c] += row[c];
  }
  if (dx != nullptr) MatmulTransposeBInto(*dz, w_, dx);
}

Status Linear::Save(std::ostream* os) const {
  CROWDRL_RETURN_NOT_OK(w_.Save(os));
  CROWDRL_RETURN_NOT_OK(b_.Save(os));
  uint8_t act = act_ == Activation::kRelu ? 1 : 0;
  os->write(reinterpret_cast<const char*>(&act), 1);
  if (!os->good()) return Status::IoError("linear write failed");
  return Status::OK();
}

Status Linear::Load(std::istream* is) {
  CROWDRL_ASSIGN_OR_RETURN(w_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(b_, Matrix::Load(is));
  uint8_t act = 0;
  is->read(reinterpret_cast<char*>(&act), 1);
  if (!is->good()) return Status::IoError("linear read failed");
  act_ = act ? Activation::kRelu : Activation::kIdentity;
  return Status::OK();
}

}  // namespace crowdrl
