// Local regression model for one data segment (Section 3.3, Figure 5).
//
// Under the global-local framework each segment D^[i] gets its own small
// CardModel whose aux input is x_C — the query's distances to *all* segment
// centroids — rather than the basic model's sample-distance vector x_D (the
// paper removes x_D here because "the distance distribution in each data
// segment can be easily learned by the other layers faster").
#ifndef SIMCARD_CORE_LOCAL_MODEL_H_
#define SIMCARD_CORE_LOCAL_MODEL_H_

#include <algorithm>
#include <memory>

#include "core/card_model.h"

namespace simcard {

/// \brief One segment's estimator: card^[i](q, tau).
class LocalModel {
 public:
  /// Builds the underlying CardModel. `config.aux_dim` must equal the
  /// number of segments (x_C width).
  static Result<std::unique_ptr<LocalModel>> Build(size_t segment_index,
                                                   const CardModelConfig& config,
                                                   Rng* rng);

  /// Trains on this segment's flattened samples. Zero-cardinality samples
  /// are subsampled at `zero_keep_prob` so the model still learns to emit
  /// ~0 for mis-routed queries without being swamped by zeros. Returns the
  /// final epoch loss; fails when the divergence watchdog gives up (the
  /// model is left untrained so Estimate degrades to 0 instead of noise).
  Result<double> Train(const Matrix& queries, const Matrix& xc_features,
                       const std::vector<LabeledQuery>& labeled,
                       double zero_keep_prob,
                       const CardTrainOptions& options);

  /// Additional gradient steps on fresh samples (incremental updates,
  /// Section 5.3).
  Result<double> FineTune(const Matrix& queries, const Matrix& xc_features,
                          const std::vector<LabeledQuery>& labeled,
                          double zero_keep_prob, CardTrainOptions options,
                          size_t epochs);

  /// Estimated cardinality of (q, tau) on this segment, clamped to the
  /// segment's population (a segment cannot contain more matches than
  /// members — this bound also caps out-of-distribution blow-ups). A model
  /// that never saw a training sample answers 0: no training query matched
  /// its segment, and an untrained network would emit noise. A batch of one
  /// through EstimateBatch.
  double Estimate(const float* query, float tau, const float* xc_row) const {
    const CardModelConfig& c = model_->config();
    return EstimateBatch(Matrix::RowVector(query, c.query_dim),
                         Matrix::RowVector(&tau, 1),
                         Matrix::RowVector(xc_row, c.aux_dim))[0];
  }

  /// Row i answers Estimate(xq.Row(i), xtau.at(i,0), xc.Row(i)) bitwise —
  /// same untrained-zero and population-clamp semantics, one CardModel
  /// forward for all rows.
  std::vector<double> EstimateBatch(const Matrix& xq, const Matrix& xtau,
                                    const Matrix& xc) const {
    if (!trained_) return std::vector<double>(xq.rows(), 0.0);
    std::vector<double> out = model_->ApplyBatch(xq, xtau, xc);
    if (max_card_ > 0.0) {
      for (double& est : out) est = std::min(est, max_card_);
    }
    return out;
  }

  /// Sets the clamp to the segment's member count.
  void set_max_card(double max_card) { max_card_ = max_card; }

  size_t segment_index() const { return segment_index_; }
  CardModel* model() { return model_.get(); }
  const CardModel* model() const { return model_.get(); }
  size_t NumScalars() const { return model_->NumScalars(); }

  /// Self-describing persistence (segment metadata + model config + weights).
  void Save(Serializer* out) const;
  static Result<std::unique_ptr<LocalModel>> Load(Deserializer* in);

 private:
  LocalModel() = default;

  size_t segment_index_ = 0;
  double max_card_ = 0.0;
  bool trained_ = false;
  std::unique_ptr<CardModel> model_;
};

}  // namespace simcard

#endif  // SIMCARD_CORE_LOCAL_MODEL_H_
