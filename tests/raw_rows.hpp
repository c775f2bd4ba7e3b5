// Raw-row reference counts shared by the CI-tester tests: a marginal
// counted straight from the dataset rows — no codec, no table, no planes.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "table/marginal_table.hpp"

namespace wfbn::testing_support {

/// Marginal of `vars` (in this order) counted from the rows, first variable
/// fastest.
inline MarginalTable raw_marginal(const Dataset& data,
                                  const std::vector<std::size_t>& vars) {
  std::vector<std::uint32_t> cards;
  for (const std::size_t v : vars) cards.push_back(data.cardinalities()[v]);
  MarginalTable out(vars, cards);
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    std::uint64_t cell = 0;
    std::uint64_t stride = 1;
    for (std::size_t k = 0; k < vars.size(); ++k) {
      cell += data.at(i, vars[k]) * stride;
      stride *= cards[k];
    }
    out.add(cell, 1);
  }
  return out;
}

}  // namespace wfbn::testing_support
