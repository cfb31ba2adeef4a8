#!/usr/bin/env bash
# Gate against the removed estimation entry points: no in-tree code (src/,
# bench/, examples/, tests/) may declare or call the pointer-and-tau
# overloads that the unified EstimateRequest API replaced:
#
#   Estimator/GlEstimator::EstimateSearch(const float*, float[, policy])
#   EstimationService::Submit(const float*, size_t, float)
#   EstimationService::Submit(std::vector<float>, float, double)
#
# They are gone; this scan keeps them from coming back. Tests go through
# tests/support/request_helpers.h or build an EstimateRequest directly.
#
# Usage: scripts/check_api_deprecations.sh [repo_root]
set -euo pipefail

REPO_ROOT="${1:-"$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"}"
cd "${REPO_ROOT}"

SCAN_DIRS=(src bench examples tests)

fail=0

# `EstimateSearch(` matches calls and declarations of the removed single
# overload but not EstimateSearchBatch(.
while IFS=: read -r file line text; do
  echo "removed EstimateSearch( call: ${file}:${line}: ${text}" >&2
  fail=1
done < <(grep -rn --include='*.cc' --include='*.h' 'EstimateSearch(' \
           "${SCAN_DIRS[@]}" 2>/dev/null || true)

# Legacy Submit overloads: a Submit call whose first argument is not an
# EstimateRequest. Heuristic, tuned to the shapes that appear in practice:
#   Submit(std::vector<float>...)        explicit vector first arg
#   Submit(std::move(q), tau, ...)       moved vector + two more args
#   Submit(MakeQuery(), tau, ...)        function-call first arg + more args
#   Submit(q.data(), dim, tau)           pointer + dim shim
# ThreadPool::Submit(lambda) is not caught: a lambda first arg starts with
# `[`, and single-argument std::move(fn) has no trailing comma.
while IFS=: read -r file line text; do
  echo "removed Submit overload call: ${file}:${line}: ${text}" >&2
  fail=1
done < <(grep -rnE --include='*.cc' --include='*.h' \
           'Submit\((std::vector<float>|std::move\([a-zA-Z_]+\), *[a-zA-Z_0-9.]+, |[a-zA-Z_][a-zA-Z_0-9]*\(\), |[a-zA-Z_][a-zA-Z_0-9.]*\.data\(\), )' \
           "${SCAN_DIRS[@]}" 2>/dev/null || true)

if [[ "${fail}" -ne 0 ]]; then
  echo "check_api_deprecations: migrate the callers above to" >&2
  echo "  Estimate(const EstimateRequest&) / Submit(const EstimateRequest&)" >&2
  echo "  (tests can use tests/support/request_helpers.h)" >&2
  exit 1
fi
echo "check_api_deprecations: no removed estimation calls in" \
     "src/ bench/ examples/ tests/"
