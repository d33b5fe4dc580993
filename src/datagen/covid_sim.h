// COVID-19 dataset simulator (substitution for the JHU repository [20] the
// paper uses, which is not bundled, so experiments run offline and
// reproduce from a seed).
//
// 58 states/territories, 345 daily buckets from 2020-01-22 to 2020-12-31.
// Each state's daily confirmed cases are a mixture of Gaussian waves whose
// timing/amplitude follow the 2020 narrative the paper's case study reports
// (Figures 2, 11, 12 and Table 3): WA/NY/CA early, NY+NJ+MA spring surge,
// IL/CA transition in May, CA/TX/FL summer, IL/TX/WI fall, CA/NY winter.
// The remaining states carry smaller background waves. Total confirmed
// cases are the running sums.

#ifndef TSEXPLAIN_DATAGEN_COVID_SIM_H_
#define TSEXPLAIN_DATAGEN_COVID_SIM_H_

#include <cstdint>
#include <memory>

#include "src/table/table.h"

namespace tsexplain {

/// Number of days in the simulated range (2020-01-22 .. 2020-12-31).
inline constexpr int kCovidDays = 345;

/// Number of states/territories (paper: "full 58 states in the US").
inline constexpr int kCovidStates = 58;

/// Builds the relation Covid(date | state | daily_confirmed_cases,
/// total_confirmed_cases); one row per (state, day). Deterministic in seed.
std::unique_ptr<Table> MakeCovidTable(uint64_t seed = 2020);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DATAGEN_COVID_SIM_H_
