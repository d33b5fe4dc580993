#include "src/diff/guess_verify.h"

#include <algorithm>
#include <cstddef>

#include "src/common/check.h"

namespace tsexplain {
namespace {

constexpr double kScoreEps = 1e-9;

}  // namespace

TopExplanations GuessVerifyTopM(CascadingAnalysts& solver,
                                const std::vector<double>& gamma, int m,
                                const std::vector<ExplId>* selectable,
                                int initial_guess, GuessVerifyStats* stats) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_GE(initial_guess, 1);
  if (solver.flat()) {
    // Every cell is a sibling of every other: the flat pass over all the
    // selectable cells is exact, and cheaper than a first guess.
    TopExplanations result = selectable != nullptr
                                 ? solver.TopMRestricted(gamma, m, *selectable)
                                 : solver.TopM(gamma, m);
    if (stats != nullptr) {
      stats->iterations = 1;
      stats->final_guess_size = static_cast<int>(solver.last_nodes_visited());
      stats->exact_fallback = true;
    }
    return result;
  }

  // chi: candidate ids the caller allows with positive score, ascending.
  std::vector<ExplId> chi;
  if (selectable != nullptr) {
    if (!selectable->empty()) {
      TSE_CHECK_LT(static_cast<size_t>(selectable->back()), gamma.size());
    }
    chi.reserve(selectable->size());
    for (ExplId e : *selectable) {
      if (gamma[static_cast<size_t>(e)] > 0.0) chi.push_back(e);
    }
  } else {
    chi.reserve(gamma.size());
    for (size_t e = 0; e < gamma.size(); ++e) {
      if (gamma[e] > 0.0) chi.push_back(static_cast<ExplId>(e));
    }
  }

  auto by_gamma_desc = [&gamma](ExplId a, ExplId b) {
    const double ga = gamma[static_cast<size_t>(a)];
    const double gb = gamma[static_cast<size_t>(b)];
    if (ga != gb) return ga > gb;
    return a < b;
  };
  // Sizes are size_t: guess + m must not overflow for any int m.
  const size_t quota = static_cast<size_t>(m);
  size_t guess = std::min(static_cast<size_t>(initial_guess), chi.size());
  // The first top.size() entries of chi in (gamma desc, id asc) order.
  std::vector<ExplId> top;
  std::vector<ExplId> candidates;
  GuessVerifyStats local_stats;
  for (;;) {
    ++local_stats.iterations;
    // A round reads its guess plus the next m ranks (Eq. 12's bound), taken
    // in one bounded pass over chi: O(|chi| log (guess + m)).
    const size_t need = std::min(guess + quota, chi.size());
    if (need > top.size()) {
      top.resize(need);
      std::partial_sort_copy(chi.begin(), chi.end(), top.begin(), top.end(),
                             by_gamma_desc);
    }

    candidates.assign(top.begin(),
                      top.begin() + static_cast<std::ptrdiff_t>(guess));
    TopExplanations result = solver.TopMRestricted(gamma, m, candidates);

    const bool covered_all = guess >= chi.size();
    bool verified = true;
    if (!covered_all) {
      // Eq. 12: for every split m' in-prefix / (m - m') out-of-prefix, the
      // out-of-prefix part is upper-bounded by the next (m - m') raw gammas
      // (those that exist: ranks guess .. guess + m - m' - 1). The prefix
      // must beat every such bound, not tie it: a solution outside the
      // prefix that ties the optimum may be the one the full lattice's
      // drill-down order picks.
      for (int m_prime = 0; m_prime < m && verified; ++m_prime) {
        double upper = result.best[static_cast<size_t>(m_prime)];
        const size_t end = std::min(
            guess + static_cast<size_t>(m - m_prime), chi.size());
        for (size_t idx = guess; idx < end; ++idx) {
          upper += gamma[static_cast<size_t>(top[idx])];
        }
        if (!(result.best[quota] > upper + kScoreEps)) verified = false;
      }
    }

    if (verified || covered_all) {
      local_stats.final_guess_size = static_cast<int>(guess);
      local_stats.exact_fallback = covered_all;
      if (stats != nullptr) *stats = local_stats;
      return result;
    }
    guess = std::min(guess * 2, chi.size());
  }
}

}  // namespace tsexplain
