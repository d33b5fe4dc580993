// CDC weekly-deaths dataset simulator (substitution for [4], which is not
// bundled, so experiments run offline and reproduce from a seed). Used by
// the time-varying-attribute discussion (paper section 8, Figure 18).
//
// Weekly deaths for weeks 14..52 of 2021 broken down by the time-varying
// attribute `vaccinated` (NO/YES) and the static attribute `age-group`
// (0-17 / 18-49 / 50+). The scripted story matches the paper: before week
// ~31 the rise is dominated by unvaccinated people of all ages; from week
// ~32 the dominant contributor shifts to age-group=50+ regardless of
// vaccination status.

#ifndef TSEXPLAIN_DATAGEN_DEATHS_SIM_H_
#define TSEXPLAIN_DATAGEN_DEATHS_SIM_H_

#include <cstdint>
#include <memory>

#include "src/table/table.h"

namespace tsexplain {

/// Weeks 14..52 of 2021 inclusive.
inline constexpr int kDeathsWeeks = 39;

/// Builds Deaths(week | vaccinated, age-group | deaths).
std::unique_ptr<Table> MakeDeathsTable(uint64_t seed = 2021);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DATAGEN_DEATHS_SIM_H_
