// Guess-and-verify optimization (O1, paper section 5.3.1).
//
// Instead of handing all epsilon candidate explanations to the Cascading
// Analysts algorithm, sort them by gamma descending, run CA restricted to
// the top m-bar candidates, and verify optimality with the sufficient
// condition of Eq. 12, held strictly:
//
//   Best[m] > Best[m'] + sum_{j=1..m-m'} gamma(E_{r_{m-bar+j}})
//                                         for all 0 <= m' < m
//
// i.e. any solution using m' explanations from the prefix plus (m - m')
// from outside is upper-bounded by the right-hand side. The paper writes
// >=; under a tie a solution outside the prefix may match the optimum, and
// the full lattice's drill-down order may pick it, so a tie does not
// verify. On failure the prefix doubles (m-bar <- 2 m-bar) and the
// process repeats; when m-bar reaches epsilon the run is exact by
// construction. Candidates rank by (gamma descending, id ascending).
//
// On a flat lattice (one explain-by attribute; CascadingAnalysts::flat())
// there are no rounds: the solver's flat pass over every selectable cell
// is the exact answer in O(k * min(k, m)) for k positive cells, where a
// first guess of 30 + m cells would already cover most of a small lattice.
// It returns the masked TopM's ids, gammas and Best bit for bit, as every
// round's answer does. Its stats read one iteration, an exact fallback, and
// a final guess of the k positive selectable cells the pass walked.

#ifndef TSEXPLAIN_DIFF_GUESS_VERIFY_H_
#define TSEXPLAIN_DIFF_GUESS_VERIFY_H_

#include <vector>

#include "src/diff/cascading_analysts.h"

namespace tsexplain {

/// Default initial prefix size (paper: "when m = 3, we initialize
/// m-bar = 30").
inline constexpr int kDefaultInitialGuess = 30;

/// Statistics from one guess-and-verify run (benchmark instrumentation).
struct GuessVerifyStats {
  int iterations = 0;        // number of guess rounds
  int final_guess_size = 0;  // m-bar that passed verification
  bool exact_fallback = false;  // true if m-bar grew to epsilon
};

/// Computes the same TopExplanations as CascadingAnalysts::TopM but via
/// guess-and-verify. `selectable` lists the candidate ids the caller
/// allows, ascending (e.g. the engine's combined mask as an id list);
/// nullptr means all candidates. Results are guaranteed identical to the
/// unoptimized run (the verification condition is sufficient for
/// optimality). With no positive candidate the result is empty with a zero
/// Best, from one round.
TopExplanations GuessVerifyTopM(CascadingAnalysts& solver,
                                const std::vector<double>& gamma, int m,
                                const std::vector<ExplId>* selectable = nullptr,
                                int initial_guess = kDefaultInitialGuess,
                                GuessVerifyStats* stats = nullptr);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_GUESS_VERIFY_H_
