// Iowa liquor-sales dataset simulator (substitution for the transaction
// dump the paper uses, which is not bundled, so experiments run offline and
// reproduce from a seed).
//
// 128 business days from 2020-01-02 to 2020-06-30 and a product catalog
// over four explain-by attributes -- Bottle Volume BV (ml), Pack P,
// Category Name CN, Vendor Name VN -- sized so that conjunction enumeration
// up to order 3 lands in the paper's epsilon ballpark (8197 raw, ~1800
// after the support filter). Demand follows the pandemic narrative of
// Table 5: post-holiday dip to 1/20, large-pack (P=12/24/48) growth to
// early March, the BV=1000 collapse when bars/restaurants close in March
// (with BV=1750&P=6 and BV=750&P=12 rising), continued large-pack growth,
// the late-April reopening recovery of BV=1000 (first via P=12), and the
// early-summer plateau.

#ifndef TSEXPLAIN_DATAGEN_LIQUOR_SIM_H_
#define TSEXPLAIN_DATAGEN_LIQUOR_SIM_H_

#include <cstdint>
#include <memory>

#include "src/table/table.h"

namespace tsexplain {

/// Business days from 2020-01-02 to 2020-06-30 (paper: n = 128).
inline constexpr int kLiquorDays = 128;

/// Builds Liquor(date | BV, P, CN, VN | bottles_sold); one row per
/// (product, day) with the day's bottles sold for that product.
std::unique_ptr<Table> MakeLiquorTable(uint64_t seed = 1773);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DATAGEN_LIQUOR_SIM_H_
