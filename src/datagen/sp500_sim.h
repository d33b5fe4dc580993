// S&P 500 dataset simulator (substitution for the constituent price/share
// data the paper uses, which is not bundled, so experiments run offline and
// reproduce from a seed).
//
// 503 stocks in 11 categories and ~96 subcategories (matching the paper's
// epsilon = 610 = 11 + 96 + 503 after hierarchy dedup), 151 trading days
// from 2020-01-02 to 2020-10-01. Prices follow geometric random walks
// driven by sector factors scripted to the 2020 story the case study
// reports (Figure 13 / Table 4): a January rise led by technology and
// internet retail, the 02-20..03-23 crash led by technology / financial /
// communication, a technology-led recovery through late August in which
// financials do NOT bounce back, and a September pullback.
// The index is SUM(price * share) / divisor, reproduced here as the SUM
// aggregate over a precomputed weight measure.

#ifndef TSEXPLAIN_DATAGEN_SP500_SIM_H_
#define TSEXPLAIN_DATAGEN_SP500_SIM_H_

#include <cstdint>
#include <memory>

#include "src/table/table.h"

namespace tsexplain {

/// Trading days from 2020-01-02 to 2020-10-01 (matches the paper's n=151).
inline constexpr int kSp500Days = 151;

/// Number of constituents tracked through the whole period (paper: 503).
inline constexpr int kSp500Stocks = 503;

/// Builds Sp500(date | category, subcategory, stock | weighted_price); one
/// row per (stock, day) with weighted_price = price * share / divisor.
std::unique_ptr<Table> MakeSp500Table(uint64_t seed = 500);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DATAGEN_SP500_SIM_H_
