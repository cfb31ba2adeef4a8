// Shared test plumbing for the unified estimation API: builds an
// EstimateRequest the way production callers do (the removed
// EstimateSearch/Submit overloads stay out of tests/ too, enforced by
// scripts/check_api_deprecations.sh).
#ifndef SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_
#define SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_

#include <span>

#include "core/estimator.h"
#include "core/gl_estimator.h"

namespace simcard {
namespace testsupport {

// Single-query estimate card(q, tau, D) through Estimate(EstimateRequest).
// The span is passed in the length-unknown encoding (empty span, non-null
// data) because most tests hold a bare row pointer; the estimator trusts it
// for dim() floats.
inline double EstimateCard(Estimator& est, const float* query, float tau,
                           SegmentEvalPolicy* policy = nullptr) {
  EstimateRequest request;
  request.query = std::span<const float>(query, static_cast<size_t>(0));
  request.tau = tau;
  request.options.policy = policy;
  return est.Estimate(request);
}

// Const-path twin for shared (published) GL models.
inline double EstimateCard(const GlEstimator& est, const float* query,
                           float tau, SegmentEvalPolicy* policy = nullptr) {
  EstimateRequest request;
  request.query = std::span<const float>(query, static_cast<size_t>(0));
  request.tau = tau;
  request.options.policy = policy;
  return est.Estimate(request);
}

}  // namespace testsupport
}  // namespace simcard

#endif  // SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_
