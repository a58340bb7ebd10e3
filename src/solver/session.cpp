#include "solver/session.h"

#include <utility>

#include "solver/revised_core.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::solver {

struct LpSession::Impl {
  explicit Impl(const LpOptions& options)
      : core(sanitize(options)), reg(options.telemetry) {}

  // A session is always the revised engine with per-solve seeds; a stray
  // Dense selection or dangling warm_start pointer must not leak in.
  static LpOptions sanitize(LpOptions o) {
    o.engine = LpEngine::Revised;
    o.warm_start = nullptr;
    return o;
  }

  internal::RevisedCore core;
  util::telemetry::Registry* reg;
  std::uint64_t pending_patches = 0;  // flushed to telemetry per solve
  Stats stats;
};

LpSession::LpSession(const LpProblem& problem, const LpOptions& options)
    : impl_(std::make_unique<Impl>(options)) {
  util::telemetry::ScopedTimer timer(impl_->reg, "lp.session.build");
  impl_->core.setup(problem);
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
  ++impl_->pending_patches;
}

void LpSession::patch_coefficient(std::size_t r, std::size_t v, double coeff) {
  impl_->core.patch_coefficient(r, v, coeff);
  ++impl_->pending_patches;
}

void LpSession::patch_bound(std::size_t v, double lo, double hi) {
  impl_->core.patch_bound(v, lo, hi);
  ++impl_->pending_patches;
}

void LpSession::patch_cost(std::size_t v, double obj) {
  impl_->core.patch_cost(v, obj);
  ++impl_->pending_patches;
}

LpSolution LpSession::solve(const LpBasis* seed) {
  Impl& im = *impl_;
  util::telemetry::ScopedTimer timer(im.reg, "lp.session.solve");
  const internal::RevisedCore::SessionCounters before =
      im.core.session_counters();

  LpSolution sol = im.core.solve_persistent(seed);

  ++im.stats.solves;
  im.stats.patches += im.pending_patches;
  const internal::RevisedCore::SessionCounters& after =
      im.core.session_counters();
  im.stats.column_updates = after.column_updates;
  im.stats.refactorizations = after.refactorizations;
  im.stats.stability_refactorizations = after.stability_refactorizations;
  im.stats.fallbacks = after.fallbacks;
  im.stats.resident_resumes = after.resident_resumes;
  im.stats.seed_imports = after.seed_imports;
  im.stats.ft_budget_exhausted = after.ft_budget_exhausted;

  if (auto* reg = im.reg) {
    // lp.session.* deltas for this solve (docs/OBSERVABILITY.md).
    reg->count("lp.session.solves");
    if (im.pending_patches) reg->count("lp.session.patches", im.pending_patches);
    const auto delta = [&](std::uint64_t b, std::uint64_t a, const char* key) {
      if (a > b) reg->count(key, a - b);
    };
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

    // Mirror the solve_lp dispatcher's lp.* counters so session and
    // non-session sweeps stay comparable in benches and dashboards. A
    // resident resume or accepted seed counts as a warm start; an attempted
    // one that fell back counts as a reject.
    reg->count("lp.solves");
    reg->count("lp.iterations", sol.iterations);
    const bool warm_attempted =
        after.seed_imports + after.resident_resumes + after.fallbacks >
        before.seed_imports + before.resident_resumes + before.fallbacks;
    if (warm_attempted) {
      reg->count(sol.warm_used ? "lp.warm_starts" : "lp.warm_rejects");
    }
    const char* bucket = sol.iterations <= 4     ? "lp.iters.le_4"
                         : sol.iterations <= 16  ? "lp.iters.le_16"
                         : sol.iterations <= 64  ? "lp.iters.le_64"
                         : sol.iterations <= 256 ? "lp.iters.le_256"
                                                 : "lp.iters.gt_256";
    reg->count(bucket);
  }
  im.pending_patches = 0;
  return sol;
}

LpSession::Stats LpSession::stats() const { return impl_->stats; }

}  // namespace tapo::solver
