#include "solver/session.h"

#include <utility>

#include "solver/revised_core.h"
#include "util/telemetry.h"

namespace tapo::solver {

struct LpSession::Impl {
  Impl(const LpProblem& problem, const LpOptions& options)
      : core(problem, options), reg(options.telemetry) {}

  internal::RevisedCore core;
  util::telemetry::Registry* reg;
};

LpSession::LpSession(const LpProblem& problem, const LpOptions& options) {
  util::telemetry::ScopedTimer timer(options.telemetry, "lp.session.build");
  impl_ = std::make_unique<Impl>(problem, options);
}

LpSession::~LpSession() = default;
LpSession::LpSession(const LpSession& other)
    : impl_(std::make_unique<Impl>(*other.impl_)) {}
LpSession& LpSession::operator=(const LpSession& other) {
  if (this != &other) impl_ = std::make_unique<Impl>(*other.impl_);
  return *this;
}
LpSession::LpSession(LpSession&&) noexcept = default;
LpSession& LpSession::operator=(LpSession&&) noexcept = default;

void LpSession::patch_rhs(std::size_t r, double rhs) {
  impl_->core.patch_rhs(r, rhs);
}

void LpSession::patch_coefficient(std::size_t r, std::size_t v, double coeff) {
  impl_->core.patch_coefficient(r, v, coeff);
}

LpSolution LpSession::solve(const LpBasis* seed) {
  Impl& im = *impl_;
  util::telemetry::ScopedTimer timer(im.reg, "lp.session.solve");
  const Stats before = im.core.stats();
  LpSolution sol = im.core.solve(seed);
  const Stats& after = im.core.stats();

  // A resident resume or accepted seed counts as a warm start; an attempted
  // one that fell back counts as a reject.
  const bool warm_attempted =
      after.seed_imports + after.resident_resumes + after.fallbacks >
      before.seed_imports + before.resident_resumes + before.fallbacks;
  internal::count_lp_solve(im.reg, sol, warm_attempted);
  if (auto* reg = im.reg) {
    // lp.session.* deltas for this solve (docs/OBSERVABILITY.md).
    reg->count("lp.session.solves");
    const auto delta = [&](std::uint64_t b, std::uint64_t a, const char* key) {
      if (a > b) reg->count(key, a - b);
    };
    delta(before.patches, after.patches, "lp.session.patches");
    delta(before.column_updates, after.column_updates,
          "lp.session.column_updates");
    delta(before.refactorizations, after.refactorizations,
          "lp.session.refactorizations");
    delta(before.fallbacks, after.fallbacks, "lp.session.fallbacks");
    delta(before.resident_resumes, after.resident_resumes,
          "lp.session.resident_resumes");
    delta(before.seed_imports, after.seed_imports, "lp.session.seed_imports");
    delta(before.ft_budget_exhausted, after.ft_budget_exhausted,
          "lp.session.ft_budget_exhausted");
  }
  return sol;
}

LpSession::Stats LpSession::stats() const { return impl_->core.stats(); }

}  // namespace tapo::solver
