// Test peer of CascadingAnalysts: runs the general drill-down DP over the
// registry's full lattice even where TopM takes the flat pass, so tests
// can hold the flat pass to the DP it stands in for.

#ifndef TSEXPLAIN_TESTS_CASCADING_ANALYSTS_TEST_PEER_H_
#define TSEXPLAIN_TESTS_CASCADING_ANALYSTS_TEST_PEER_H_

#include <cstddef>
#include <vector>

#include "src/diff/cascading_analysts.h"

namespace tsexplain {

class CascadingAnalystsTestPeer {
 public:
  /// The general DP's answer under `selectable` (nullptr: every cell),
  /// ranked as TopM ranks it. Throws std::length_error for m = INT_MAX.
  static TopExplanations GeneralTopM(CascadingAnalysts& solver,
                                     const std::vector<double>& gamma, int m,
                                     const std::vector<bool>* selectable) {
    TopExplanations result = solver.Run(solver.registry_.lattice(),
                                        gamma.data(), selectable, m);
    SortByGammaDesc(gamma, &result.ids);
    for (ExplId id : result.ids) {
      result.gammas.push_back(gamma[static_cast<size_t>(id)]);
    }
    return result;
  }
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_TESTS_CASCADING_ANALYSTS_TEST_PEER_H_
