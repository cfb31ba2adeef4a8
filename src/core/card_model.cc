#include "core/card_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/positive_linear.h"
#include "obs/training_observer.h"
#include "tensor/ops.h"

namespace simcard {
namespace {

constexpr float kLogCardLo = -10.0f;
constexpr float kLogCardHi = 25.0f;

std::unique_ptr<nn::Sequential> BuildMlpTower(size_t in_dim, size_t hidden,
                                              size_t out_dim, Rng* rng) {
  auto tower = std::make_unique<nn::Sequential>();
  tower->Emplace<nn::Linear>(in_dim, hidden, rng);
  tower->Emplace<nn::Relu>();
  tower->Emplace<nn::Linear>(hidden, out_dim, rng);
  tower->Emplace<nn::Relu>();
  return tower;
}

// The paper's E2/E5: one-hidden-layer MLP with all-positive weights so the
// embedding is monotone in tau. Biases of the first layer are staggered over
// the standardized tau range so the ReLU units form a hinge basis (zero
// biases would leave every unit dead for below-average thresholds).
std::unique_ptr<nn::Sequential> BuildTauTower(size_t hidden, size_t out_dim,
                                              Rng* rng) {
  auto tower = std::make_unique<nn::Sequential>();
  auto* first = tower->Emplace<nn::PositiveLinear>(1, hidden, rng);
  first->InitBiasUniform(-2.0f, 2.0f, rng);
  tower->Emplace<nn::Relu>();
  tower->Emplace<nn::PositiveLinear>(hidden, out_dim, rng);
  tower->Emplace<nn::Relu>();
  return tower;
}

// The paper's E3/E6: two hidden layers (Section 5.1).
std::unique_ptr<nn::Sequential> BuildAuxTower(size_t in_dim, size_t hidden,
                                              Rng* rng) {
  auto tower = std::make_unique<nn::Sequential>();
  tower->Emplace<nn::Linear>(in_dim, hidden, rng);
  tower->Emplace<nn::Relu>();
  tower->Emplace<nn::Linear>(hidden, hidden, rng);
  tower->Emplace<nn::Relu>();
  return tower;
}

}  // namespace

void CardModelConfig::Serialize(Serializer* out) const {
  out->WriteU64(query_dim);
  out->WriteU32(use_cnn_query_tower ? 1 : 0);
  qes.Serialize(out);
  out->WriteU64(mlp_hidden);
  out->WriteU64(query_embed);
  out->WriteU64(tau_hidden);
  out->WriteU64(tau_embed);
  out->WriteU64(aux_dim);
  out->WriteU64(aux_hidden);
  out->WriteU64(head_hidden);
}

Status CardModelConfig::Deserialize(Deserializer* in) {
  uint64_t v = 0;
  uint32_t flag = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  query_dim = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU32(&flag));
  use_cnn_query_tower = flag != 0;
  SIMCARD_RETURN_IF_ERROR(qes.Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  mlp_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  query_embed = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  tau_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  tau_embed = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  aux_dim = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  aux_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  head_hidden = v;
  return Status::OK();
}

Result<std::unique_ptr<CardModel>> CardModel::Build(
    const CardModelConfig& config, Rng* rng) {
  if (config.query_dim == 0) {
    return Status::InvalidArgument("CardModel: query_dim must be positive");
  }
  auto model = std::unique_ptr<CardModel>(new CardModel());
  model->config_ = config;

  if (config.use_cnn_query_tower) {
    auto tower_or = BuildQesTower(config.query_dim, config.qes, rng,
                                  &model->query_embed_dim_);
    if (!tower_or.ok()) return tower_or.status();
    model->query_tower_ = std::move(tower_or.value());
  } else {
    model->query_embed_dim_ = config.query_embed;
    model->query_tower_ = BuildMlpTower(config.query_dim, config.mlp_hidden,
                                        config.query_embed, rng);
  }

  model->tau_embed_dim_ = config.tau_embed;
  model->tau_tower_ = BuildTauTower(config.tau_hidden, config.tau_embed, rng);

  if (config.aux_dim > 0) {
    model->aux_embed_dim_ = config.aux_hidden;
    model->aux_tower_ = BuildAuxTower(config.aux_dim, config.aux_hidden, rng);
  }

  const size_t concat = model->query_embed_dim_ + model->tau_embed_dim_ +
                        model->aux_embed_dim_;
  // Two-branch head: a positive-weight monotone path carries tau, an
  // unconstrained free path carries everything else (see nn/monotone_head.h).
  model->head_ = std::make_unique<nn::MonotoneHead>(
      concat,
      /*tau_begin=*/model->query_embed_dim_,
      /*tau_end=*/model->query_embed_dim_ + model->tau_embed_dim_,
      /*mono_hidden=*/std::max<size_t>(8, config.head_hidden / 4),
      /*free_hidden=*/config.head_hidden, /*out_dim=*/1, rng);
  return model;
}

Matrix CardModel::NormalizeTau(const Matrix& xtau) const {
  Matrix out = xtau;
  float* d = out.data();
  for (size_t i = 0; i < out.size(); ++i) {
    d[i] = (d[i] - tau_shift_) / tau_scale_;
  }
  return out;
}

Matrix CardModel::NormalizeAux(const Matrix& xaux) const {
  if (aux_shift_.empty() || xaux.empty()) return xaux;
  assert(xaux.cols() == aux_shift_.size());
  Matrix out = xaux;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    for (size_t c = 0; c < out.cols(); ++c) {
      row[c] = (row[c] - aux_shift_[c]) / aux_scale_[c];
    }
  }
  return out;
}

Matrix CardModel::Forward(const Matrix& xq, const Matrix& xtau,
                          const Matrix& xaux) {
  assert(xq.rows() == xtau.rows());
  last_forward_pooled_ = false;
  std::vector<Matrix> parts;
  parts.push_back(query_tower_->Forward(xq));
  parts.push_back(tau_tower_->Forward(NormalizeTau(xtau)));
  if (aux_tower_ != nullptr) {
    assert(xaux.rows() == xq.rows());
    parts.push_back(aux_tower_->Forward(NormalizeAux(xaux)));
  }
  return head_->Forward(ConcatCols(parts));
}

Matrix CardModel::Apply(const Matrix& xq, const Matrix& xtau,
                        const Matrix& xaux) const {
  assert(xq.rows() == xtau.rows());
  std::vector<Matrix> parts;
  parts.push_back(query_tower_->Apply(xq));
  parts.push_back(tau_tower_->Apply(NormalizeTau(xtau)));
  if (aux_tower_ != nullptr) {
    assert(xaux.rows() == xq.rows());
    parts.push_back(aux_tower_->Apply(NormalizeAux(xaux)));
  }
  return head_->Apply(ConcatCols(parts));
}

void CardModel::Backward(const Matrix& grad) {
  assert(!last_forward_pooled_);
  Matrix gh = head_->Backward(grad);
  size_t offset = 0;
  query_tower_->Backward(gh.SliceCols(offset, offset + query_embed_dim_));
  offset += query_embed_dim_;
  tau_tower_->Backward(gh.SliceCols(offset, offset + tau_embed_dim_));
  offset += tau_embed_dim_;
  if (aux_tower_ != nullptr) {
    aux_tower_->Backward(gh.SliceCols(offset, offset + aux_embed_dim_));
  }
}

Matrix CardModel::ForwardPooled(const Matrix& xq_members, float tau,
                                const Matrix& xaux_members, PooledMode mode) {
  last_forward_pooled_ = true;
  pooled_members_ = xq_members.rows();
  pooled_mode_ = mode;
  const float scale =
      mode == PooledMode::kMeanScaled
          ? 1.0f / static_cast<float>(std::max<size_t>(1, pooled_members_))
          : 1.0f;
  std::vector<Matrix> parts;
  parts.push_back(
      Scale(nn::SumPoolRows(query_tower_->Forward(xq_members)), scale));
  Matrix xtau(1, 1);
  xtau.at(0, 0) = tau;
  parts.push_back(tau_tower_->Forward(NormalizeTau(xtau)));
  if (aux_tower_ != nullptr) {
    assert(xaux_members.rows() == xq_members.rows());
    parts.push_back(Scale(
        nn::SumPoolRows(aux_tower_->Forward(NormalizeAux(xaux_members))),
        scale));
  }
  return head_->Forward(ConcatCols(parts));
}

void CardModel::BackwardPooled(const Matrix& grad) {
  assert(last_forward_pooled_);
  Matrix gh = head_->Backward(grad);
  const float scale =
      pooled_mode_ == PooledMode::kMeanScaled
          ? 1.0f / static_cast<float>(std::max<size_t>(1, pooled_members_))
          : 1.0f;
  // Pooling's gradient broadcasts the pooled slice to every member row
  // (scaled by 1/|Q| for mean pooling).
  auto broadcast = [this, scale](const Matrix& slice) {
    Matrix out(pooled_members_, slice.cols());
    for (size_t r = 0; r < pooled_members_; ++r) {
      out.SetRow(r, slice.Row(0));
    }
    return Scale(out, scale);
  };
  size_t offset = 0;
  query_tower_->Backward(
      broadcast(gh.SliceCols(offset, offset + query_embed_dim_)));
  offset += query_embed_dim_;
  tau_tower_->Backward(gh.SliceCols(offset, offset + tau_embed_dim_));
  offset += tau_embed_dim_;
  if (aux_tower_ != nullptr) {
    aux_tower_->Backward(
        broadcast(gh.SliceCols(offset, offset + aux_embed_dim_)));
  }
}

double CardModel::EstimateCard(const float* query, float tau,
                               const float* aux) const {
  return ApplyBatch(Matrix::RowVector(query, config_.query_dim),
                    Matrix::RowVector(&tau, 1),
                    aux_tower_ != nullptr
                        ? Matrix::RowVector(aux, config_.aux_dim)
                        : Matrix())[0];
}

std::vector<double> CardModel::ApplyBatch(const Matrix& xq,
                                          const Matrix& xtau,
                                          const Matrix& xaux) const {
  const Matrix u = aux_tower_ != nullptr ? Apply(xq, xtau, xaux)
                                         : Apply(xq, xtau, Matrix());
  std::vector<double> out(u.rows());
  for (size_t r = 0; r < u.rows(); ++r) {
    const float c = std::min(kLogCardHi, std::max(kLogCardLo, u.at(r, 0)));
    out[r] = std::exp(static_cast<double>(c));
  }
  return out;
}

std::vector<nn::Parameter*> CardModel::Parameters() {
  std::vector<nn::Parameter*> out = query_tower_->Parameters();
  auto append = [&out](nn::Layer* layer) {
    if (layer == nullptr) return;
    auto ps = layer->Parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(tau_tower_.get());
  append(aux_tower_.get());
  append(head_.get());
  return out;
}

std::vector<const nn::Parameter*> CardModel::Parameters() const {
  std::vector<const nn::Parameter*> out =
      static_cast<const nn::Layer*>(query_tower_.get())->Parameters();
  auto append = [&out](const nn::Layer* layer) {
    if (layer == nullptr) return;
    auto ps = layer->Parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(tau_tower_.get());
  append(aux_tower_.get());
  append(head_.get());
  return out;
}

size_t CardModel::NumScalars() const {
  return nn::CountScalars(Parameters());
}

void CardModel::SetOutputBias(float value) { head_->SetOutputBias(value); }

void CardModel::SetInputNormalization(float tau_shift, float tau_scale,
                                      std::vector<float> aux_shift,
                                      std::vector<float> aux_scale) {
  tau_shift_ = tau_shift;
  tau_scale_ = tau_scale > 1e-12f ? tau_scale : 1.0f;
  aux_shift_ = std::move(aux_shift);
  aux_scale_ = std::move(aux_scale);
  for (auto& s : aux_scale_) {
    if (s <= 1e-12f) s = 1.0f;
  }
}

void CardModel::Serialize(Serializer* out) const {
  out->WriteF32(tau_shift_);
  out->WriteF32(tau_scale_);
  out->WriteFloatVector(aux_shift_);
  out->WriteFloatVector(aux_scale_);
  query_tower_->Serialize(out);
  tau_tower_->Serialize(out);
  out->WriteU32(aux_tower_ != nullptr ? 1 : 0);
  if (aux_tower_ != nullptr) aux_tower_->Serialize(out);
  head_->Serialize(out);
}

Status CardModel::Deserialize(Deserializer* in) {
  SIMCARD_RETURN_IF_ERROR(in->ReadF32(&tau_shift_));
  SIMCARD_RETURN_IF_ERROR(in->ReadF32(&tau_scale_));
  SIMCARD_RETURN_IF_ERROR(in->ReadFloatVector(&aux_shift_));
  SIMCARD_RETURN_IF_ERROR(in->ReadFloatVector(&aux_scale_));
  SIMCARD_RETURN_IF_ERROR(query_tower_->Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(tau_tower_->Deserialize(in));
  uint32_t has_aux = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU32(&has_aux));
  if ((has_aux != 0) != (aux_tower_ != nullptr)) {
    return Status::Internal("CardModel: aux tower presence mismatch");
  }
  if (aux_tower_ != nullptr) {
    SIMCARD_RETURN_IF_ERROR(aux_tower_->Deserialize(in));
  }
  return head_->Deserialize(in);
}

void CardModel::SaveWithConfig(Serializer* out) const {
  config_.Serialize(out);
  Serialize(out);
}

Result<std::unique_ptr<CardModel>> CardModel::LoadWithConfig(
    Deserializer* in) {
  CardModelConfig config;
  SIMCARD_RETURN_IF_ERROR(config.Deserialize(in));
  Rng rng(0);  // weights are overwritten immediately
  auto model_or = Build(config, &rng);
  if (!model_or.ok()) return model_or.status();
  SIMCARD_RETURN_IF_ERROR(model_or.value()->Deserialize(in));
  return model_or;
}

Result<double> TrainCardModel(CardModel* model, const Matrix& queries,
                              const Matrix* aux,
                              std::vector<SampleRef> samples,
                              const CardTrainOptions& options) {
  if (samples.empty()) return 0.0;
  Rng rng(options.seed);

  if (options.reset_output_bias) {
    // Fit input standardization: tau over the samples, aux per column over
    // the query rows the samples reference.
    double tau_mean = 0.0;
    double tau_sq = 0.0;
    for (const auto& s : samples) {
      tau_mean += s.tau;
      tau_sq += static_cast<double>(s.tau) * s.tau;
    }
    tau_mean /= static_cast<double>(samples.size());
    const double tau_var =
        std::max(0.0, tau_sq / static_cast<double>(samples.size()) -
                          tau_mean * tau_mean);
    std::vector<float> aux_shift;
    std::vector<float> aux_scale;
    if (aux != nullptr && model->config().aux_dim > 0) {
      const size_t cols = aux->cols();
      aux_shift.assign(cols, 0.0f);
      aux_scale.assign(cols, 1.0f);
      std::vector<double> mean(cols, 0.0);
      std::vector<double> sq(cols, 0.0);
      for (size_t r = 0; r < aux->rows(); ++r) {
        const float* row = aux->Row(r);
        for (size_t c = 0; c < cols; ++c) {
          mean[c] += row[c];
          sq[c] += static_cast<double>(row[c]) * row[c];
        }
      }
      for (size_t c = 0; c < cols; ++c) {
        mean[c] /= static_cast<double>(aux->rows());
        const double var =
            std::max(0.0, sq[c] / static_cast<double>(aux->rows()) -
                              mean[c] * mean[c]);
        aux_shift[c] = static_cast<float>(mean[c]);
        aux_scale[c] = static_cast<float>(std::sqrt(var));
      }
    }
    model->SetInputNormalization(static_cast<float>(tau_mean),
                                 static_cast<float>(std::sqrt(tau_var)),
                                 std::move(aux_shift), std::move(aux_scale));
  }

  if (options.reset_output_bias) {
    // Warm-start the output bias at the mean log-cardinality.
    double mean_log = 0.0;
    for (const auto& s : samples) {
      mean_log += std::log(std::max(1.0f, s.card));
    }
    model->SetOutputBias(static_cast<float>(mean_log / samples.size()));
  }

  float lr = options.lr;
  auto opt = std::make_unique<nn::Adam>(model->Parameters(), lr);
  nn::HybridCardLoss loss(options.lambda);
  DivergenceWatchdog watchdog(options.watchdog, model->Parameters(),
                              options.observer_tag.empty()
                                  ? std::string("card")
                                  : options.observer_tag);

  Stopwatch total_watch;
  Stopwatch epoch_watch;
  double best = std::numeric_limits<double>::infinity();
  size_t stall = 0;
  size_t epochs_run = 0;
  double last_good_loss = 0.0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    epoch_watch.Restart();
    rng.Shuffle(&samples);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t first = 0; first < samples.size();
         first += options.batch_size) {
      const size_t count =
          std::min(options.batch_size, samples.size() - first);
      Batch batch = GatherBatch(queries, aux, samples, first, count);
      opt->ZeroGrad();
      Matrix pred = model->Forward(batch.xq, batch.xtau, batch.xaux);
      Matrix grad;
      epoch_loss += loss.Compute(pred, batch.targets, &grad);
      model->Backward(grad);
      opt->ClipGradNorm(options.grad_clip_norm);
      opt->Step();
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<size_t>(1, batches));
    if (fault::ShouldFail("train.nan_loss")) {
      epoch_loss = std::numeric_limits<double>::quiet_NaN();
    }
    switch (watchdog.Observe(epoch, epoch_loss, &lr)) {
      case DivergenceWatchdog::Verdict::kOk:
        break;
      case DivergenceWatchdog::Verdict::kRolledBack:
        // Adam's moments were fed the diverging gradients; start fresh at
        // the halved learning rate.
        opt = std::make_unique<nn::Adam>(model->Parameters(), lr);
        continue;
      case DivergenceWatchdog::Verdict::kExhausted:
        obs::NotifyTrainEnd(options.observer_tag, epochs_run, last_good_loss,
                            total_watch.ElapsedSeconds());
        return watchdog.ExhaustedStatus();
    }
    last_good_loss = epoch_loss;
    epochs_run = epoch + 1;
    obs::NotifyTrainEpoch(options.observer_tag, epoch, epoch_loss,
                          epoch_watch.ElapsedSeconds());
    if (epoch_loss < best * (1.0 - options.min_improvement)) {
      best = epoch_loss;
      stall = 0;
    } else if (++stall >= options.patience) {
      break;
    }
  }
  obs::NotifyTrainEnd(options.observer_tag, epochs_run, last_good_loss,
                      total_watch.ElapsedSeconds());
  return last_good_loss;
}

}  // namespace simcard
