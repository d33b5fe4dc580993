// Redundant-cell deduplication for hierarchical explain-by attributes.
//
// When attributes are hierarchically related (S&P 500: category determines
// subcategory's rows, subcategory determines... e.g. subcategory=internet
// retail selects exactly the same records as category=technology &
// subcategory=internet retail), conjunction enumeration produces multiple
// cells with IDENTICAL slices. Keeping them all would (a) inflate epsilon
// and (b) let the "same" explanation appear twice. The paper's Table 6
// reports epsilon = 610 for S&P 500 = 11 categories + 96 subcategories +
// 503 stocks exactly, i.e. redundant conjunctions are not counted; we
// reproduce that with this canonical mask: within every group of cells
// whose partial series are bit-identical, only the lowest-order (then
// lowest-id) representative stays selectable. The trade-off: Cascading
// Analysts drills the root along one attribute, so a masked deeper twin
// (category=technology & subcategory=internet retail) could have been
// paired with category=finance in one answer, while its order-1
// representative cannot.

#ifndef TSEXPLAIN_CUBE_CANONICAL_MASK_H_
#define TSEXPLAIN_CUBE_CANONICAL_MASK_H_

#include <vector>

#include "src/cube/explanation_cube.h"
#include "src/diff/explanation_registry.h"

namespace tsexplain {

/// canonical[e] == true iff cell e is the representative of its
/// equal-slice group (most cells are their own group).
std::vector<bool> ComputeCanonicalMask(const ExplanationCube& cube,
                                       const ExplanationRegistry& registry);

/// a[i] && b[i] for masks of equal size.
std::vector<bool> AndMasks(const std::vector<bool>& a,
                           const std::vector<bool>& b);

}  // namespace tsexplain

#endif  // TSEXPLAIN_CUBE_CANONICAL_MASK_H_
