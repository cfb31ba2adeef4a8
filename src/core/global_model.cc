#include "core/global_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/positive_linear.h"
#include "obs/training_observer.h"
#include "tensor/ops.h"

namespace simcard {

void GlobalModelConfig::Serialize(Serializer* out) const {
  out->WriteU64(query_dim);
  out->WriteU64(num_segments);
  out->WriteU32(use_cnn_query_tower ? 1 : 0);
  qes.Serialize(out);
  out->WriteU64(mlp_hidden);
  out->WriteU64(query_embed);
  out->WriteU64(tau_hidden);
  out->WriteU64(tau_embed);
  out->WriteU64(aux_hidden);
  out->WriteU64(head_hidden);
  out->WriteF32(sigma);
}

Status GlobalModelConfig::Deserialize(Deserializer* in) {
  uint64_t v = 0;
  uint32_t flag = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  query_dim = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  num_segments = v;
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
  aux_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  head_hidden = v;
  return in->ReadF32(&sigma);
}

Result<std::unique_ptr<GlobalModel>> GlobalModel::Build(
    const GlobalModelConfig& config, Rng* rng) {
  if (config.query_dim == 0 || config.num_segments == 0) {
    return Status::InvalidArgument(
        "GlobalModel: query_dim and num_segments must be positive");
  }
  auto model = std::unique_ptr<GlobalModel>(new GlobalModel());
  model->config_ = config;

  if (config.use_cnn_query_tower) {
    auto tower_or = BuildQesTower(config.query_dim, config.qes, rng,
                                  &model->query_embed_dim_);
    if (!tower_or.ok()) return tower_or.status();
    model->query_tower_ = std::move(tower_or.value());
  } else {
    model->query_embed_dim_ = config.query_embed;
    auto tower = std::make_unique<nn::Sequential>();
    tower->Emplace<nn::Linear>(config.query_dim, config.mlp_hidden, rng);
    tower->Emplace<nn::Relu>();
    tower->Emplace<nn::Linear>(config.mlp_hidden, config.query_embed, rng);
    tower->Emplace<nn::Relu>();
    model->query_tower_ = std::move(tower);
  }

  model->tau_embed_dim_ = config.tau_embed;
  {
    // Staggered first-layer biases: hinge basis over the standardized tau
    // range (see card_model.cc's BuildTauTower).
    auto tower = std::make_unique<nn::Sequential>();
    auto* first = tower->Emplace<nn::PositiveLinear>(1, config.tau_hidden, rng);
    first->InitBiasUniform(-2.0f, 2.0f, rng);
    tower->Emplace<nn::Relu>();
    tower->Emplace<nn::PositiveLinear>(config.tau_hidden, config.tau_embed,
                                       rng);
    tower->Emplace<nn::Relu>();
    model->tau_tower_ = std::move(tower);
  }

  model->aux_embed_dim_ = config.aux_hidden;
  {
    auto tower = std::make_unique<nn::Sequential>();
    tower->Emplace<nn::Linear>(config.num_segments, config.aux_hidden, rng);
    tower->Emplace<nn::Relu>();
    tower->Emplace<nn::Linear>(config.aux_hidden, config.aux_hidden, rng);
    tower->Emplace<nn::Relu>();
    model->aux_tower_ = std::move(tower);
  }

  const size_t concat = model->query_embed_dim_ + model->tau_embed_dim_ +
                        model->aux_embed_dim_;
  // Two-branch head: logits are non-decreasing in tau through the monotone
  // branch (the learnable pre-sigmoid threshold of Section 5.1) while the
  // free branch discriminates segments from (z_q, z_C) without constraint.
  model->head_ = std::make_unique<nn::MonotoneHead>(
      concat,
      /*tau_begin=*/model->query_embed_dim_,
      /*tau_end=*/model->query_embed_dim_ + model->tau_embed_dim_,
      /*mono_hidden=*/std::max<size_t>(8, config.head_hidden / 4),
      /*free_hidden=*/config.head_hidden, /*out_dim=*/config.num_segments,
      rng);
  return model;
}

Matrix GlobalModel::NormalizeTau(const Matrix& xtau) const {
  Matrix out = xtau;
  float* d = out.data();
  for (size_t i = 0; i < out.size(); ++i) {
    d[i] = (d[i] - tau_shift_) / tau_scale_;
  }
  return out;
}

Matrix GlobalModel::NormalizeXc(const Matrix& xc) const {
  if (xc_shift_.empty()) return xc;
  assert(xc.cols() == xc_shift_.size());
  Matrix out = xc;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    for (size_t c = 0; c < out.cols(); ++c) {
      row[c] = (row[c] - xc_shift_[c]) / xc_scale_[c];
    }
  }
  return out;
}

void GlobalModel::SetInputNormalization(float tau_shift, float tau_scale,
                                        std::vector<float> xc_shift,
                                        std::vector<float> xc_scale) {
  tau_shift_ = tau_shift;
  tau_scale_ = tau_scale > 1e-12f ? tau_scale : 1.0f;
  xc_shift_ = std::move(xc_shift);
  xc_scale_ = std::move(xc_scale);
  for (auto& s : xc_scale_) {
    if (s <= 1e-12f) s = 1.0f;
  }
}

Matrix GlobalModel::ForwardLogits(const Matrix& xq, const Matrix& xtau,
                                  const Matrix& xc) {
  assert(xq.rows() == xtau.rows() && xq.rows() == xc.rows());
  std::vector<Matrix> parts;
  parts.push_back(query_tower_->Forward(xq));
  parts.push_back(tau_tower_->Forward(NormalizeTau(xtau)));
  parts.push_back(aux_tower_->Forward(NormalizeXc(xc)));
  return head_->Forward(ConcatCols(parts));
}

Matrix GlobalModel::ApplyLogits(const Matrix& xq, const Matrix& xtau,
                                const Matrix& xc) const {
  assert(xq.rows() == xtau.rows() && xq.rows() == xc.rows());
  std::vector<Matrix> parts;
  parts.push_back(query_tower_->Apply(xq));
  parts.push_back(tau_tower_->Apply(NormalizeTau(xtau)));
  parts.push_back(aux_tower_->Apply(NormalizeXc(xc)));
  return head_->Apply(ConcatCols(parts));
}

void GlobalModel::Backward(const Matrix& grad) {
  Matrix gh = head_->Backward(grad);
  size_t offset = 0;
  query_tower_->Backward(gh.SliceCols(offset, offset + query_embed_dim_));
  offset += query_embed_dim_;
  tau_tower_->Backward(gh.SliceCols(offset, offset + tau_embed_dim_));
  offset += tau_embed_dim_;
  aux_tower_->Backward(gh.SliceCols(offset, offset + aux_embed_dim_));
}

std::vector<float> GlobalModel::Probabilities(const float* query, float tau,
                                              const float* xc) const {
  const Matrix probs = ApplyBatch(Matrix::RowVector(query, config_.query_dim),
                                  Matrix::RowVector(&tau, 1),
                                  Matrix::RowVector(xc, config_.num_segments));
  return std::vector<float>(probs.Row(0), probs.Row(0) + probs.cols());
}

Matrix GlobalModel::ApplyBatch(const Matrix& xq, const Matrix& xtau,
                               const Matrix& xc) const {
  Matrix probs = ApplyLogits(xq, xtau, xc);
  float* d = probs.data();
  for (size_t i = 0; i < probs.size(); ++i) d[i] = nn::SigmoidScalar(d[i]);
  return probs;
}

std::vector<size_t> GlobalModel::SelectSegments(
    const std::vector<float>& probs) const {
  std::vector<size_t> selected;
  SelectSegmentsInto(std::span<const float>(probs.data(), probs.size()),
                     &selected);
  return selected;
}

void GlobalModel::SelectSegmentsInto(std::span<const float> probs,
                                     std::vector<size_t>* out) const {
  out->clear();
  for (size_t s = 0; s < probs.size(); ++s) {
    if (probs[s] > config_.sigma) out->push_back(s);
  }
  if (out->empty() && !probs.empty()) {
    out->push_back(static_cast<size_t>(
        std::max_element(probs.begin(), probs.end()) - probs.begin()));
  }
}

std::vector<nn::Parameter*> GlobalModel::Parameters() {
  std::vector<nn::Parameter*> out = query_tower_->Parameters();
  for (nn::Layer* layer : {static_cast<nn::Layer*>(tau_tower_.get()),
                           static_cast<nn::Layer*>(aux_tower_.get()),
                           static_cast<nn::Layer*>(head_.get())}) {
    auto ps = layer->Parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<const nn::Parameter*> GlobalModel::Parameters() const {
  std::vector<const nn::Parameter*> out =
      static_cast<const nn::Layer*>(query_tower_.get())->Parameters();
  for (const nn::Layer* layer :
       {static_cast<const nn::Layer*>(tau_tower_.get()),
        static_cast<const nn::Layer*>(aux_tower_.get()),
        static_cast<const nn::Layer*>(head_.get())}) {
    auto ps = layer->Parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

size_t GlobalModel::NumScalars() const {
  return nn::CountScalars(Parameters());
}

void GlobalModel::Serialize(Serializer* out) const {
  out->WriteF32(tau_shift_);
  out->WriteF32(tau_scale_);
  out->WriteFloatVector(xc_shift_);
  out->WriteFloatVector(xc_scale_);
  query_tower_->Serialize(out);
  tau_tower_->Serialize(out);
  aux_tower_->Serialize(out);
  head_->Serialize(out);
}

Status GlobalModel::Deserialize(Deserializer* in) {
  SIMCARD_RETURN_IF_ERROR(in->ReadF32(&tau_shift_));
  SIMCARD_RETURN_IF_ERROR(in->ReadF32(&tau_scale_));
  SIMCARD_RETURN_IF_ERROR(in->ReadFloatVector(&xc_shift_));
  SIMCARD_RETURN_IF_ERROR(in->ReadFloatVector(&xc_scale_));
  SIMCARD_RETURN_IF_ERROR(query_tower_->Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(tau_tower_->Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(aux_tower_->Deserialize(in));
  return head_->Deserialize(in);
}

void GlobalModel::SaveWithConfig(Serializer* out) const {
  config_.Serialize(out);
  Serialize(out);
}

Result<std::unique_ptr<GlobalModel>> GlobalModel::LoadWithConfig(
    Deserializer* in) {
  GlobalModelConfig config;
  SIMCARD_RETURN_IF_ERROR(config.Deserialize(in));
  Rng rng(0);  // weights are overwritten immediately
  auto model_or = Build(config, &rng);
  if (!model_or.ok()) return model_or.status();
  SIMCARD_RETURN_IF_ERROR(model_or.value()->Deserialize(in));
  return model_or;
}

Result<double> TrainGlobalModel(GlobalModel* model, const Matrix& queries,
                                const Matrix& xc_features,
                                const GlobalLabels& labels,
                                const GlobalTrainOptions& options) {
  const size_t total = labels.samples.size();
  if (total == 0) return 0.0;
  Rng rng(options.seed);

  // Fit input standardization (see header).
  {
    double tau_mean = 0.0;
    double tau_sq = 0.0;
    for (const auto& s : labels.samples) {
      tau_mean += s.tau;
      tau_sq += static_cast<double>(s.tau) * s.tau;
    }
    tau_mean /= static_cast<double>(total);
    const double tau_var = std::max(
        0.0, tau_sq / static_cast<double>(total) - tau_mean * tau_mean);
    const size_t cols = xc_features.cols();
    std::vector<float> shift(cols, 0.0f);
    std::vector<float> scale(cols, 1.0f);
    std::vector<double> mean(cols, 0.0);
    std::vector<double> sq(cols, 0.0);
    for (size_t r = 0; r < xc_features.rows(); ++r) {
      const float* row = xc_features.Row(r);
      for (size_t c = 0; c < cols; ++c) {
        mean[c] += row[c];
        sq[c] += static_cast<double>(row[c]) * row[c];
      }
    }
    for (size_t c = 0; c < cols; ++c) {
      mean[c] /= static_cast<double>(xc_features.rows());
      const double var =
          std::max(0.0, sq[c] / static_cast<double>(xc_features.rows()) -
                            mean[c] * mean[c]);
      shift[c] = static_cast<float>(mean[c]);
      scale[c] = static_cast<float>(std::sqrt(var));
    }
    model->SetInputNormalization(static_cast<float>(tau_mean),
                                 static_cast<float>(std::sqrt(tau_var)),
                                 std::move(shift), std::move(scale));
  }

  float lr = options.lr;
  auto opt = std::make_unique<nn::Adam>(model->Parameters(), lr);
  nn::WeightedBceLoss loss;
  const size_t n_seg = labels.labels.cols();
  DivergenceWatchdog watchdog(options.watchdog, model->Parameters(),
                              options.observer_tag.empty()
                                  ? std::string("global")
                                  : options.observer_tag);

  std::vector<size_t> order(total);
  for (size_t i = 0; i < total; ++i) order[i] = i;

  Stopwatch total_watch;
  Stopwatch epoch_watch;
  double best = std::numeric_limits<double>::infinity();
  size_t stall = 0;
  size_t epochs_run = 0;
  double last_good_loss = 0.0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    epoch_watch.Restart();
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t first = 0; first < total; first += options.batch_size) {
      const size_t count = std::min(options.batch_size, total - first);
      Matrix xq(count, queries.cols());
      Matrix xtau(count, 1);
      Matrix xc(count, xc_features.cols());
      Matrix target(count, n_seg);
      Matrix penalty(count, n_seg);
      for (size_t i = 0; i < count; ++i) {
        const size_t idx = order[first + i];
        const SampleRef& s = labels.samples[idx];
        xq.SetRow(i, queries.Row(s.query_row));
        xtau.at(i, 0) = s.tau;
        xc.SetRow(i, xc_features.Row(s.query_row));
        target.SetRow(i, labels.labels.Row(idx));
        if (options.use_penalty) {
          penalty.SetRow(i, labels.penalty.Row(idx));
        }
      }
      opt->ZeroGrad();
      Matrix logits = model->ForwardLogits(xq, xtau, xc);
      Matrix grad;
      epoch_loss += loss.Compute(logits, target, penalty, &grad);
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
