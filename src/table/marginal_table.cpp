#include "table/marginal_table.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace wfbn {

MarginalTable::MarginalTable(std::vector<std::size_t> variables,
                             std::vector<std::uint32_t> cardinalities)
    : variables_(std::move(variables)), cardinalities_(std::move(cardinalities)) {
  WFBN_EXPECT(!variables_.empty(), "marginal table needs at least one variable");
  WFBN_EXPECT(variables_.size() == cardinalities_.size(),
              "variables/cardinalities shape mismatch");
  std::uint64_t cells = 1;
  for (const std::uint32_t r : cardinalities_) {
    WFBN_EXPECT(r >= 1, "cardinality must be >= 1");
    cells *= r;
    WFBN_EXPECT(cells <= (1ULL << 30), "marginal table too large to be dense");
  }
  counts_.assign(static_cast<std::size_t>(cells), 0);
}

MarginalTable::MarginalTable(std::vector<std::size_t> variables,
                             std::vector<std::uint32_t> cardinalities,
                             std::vector<std::uint64_t> counts)
    : MarginalTable(std::move(variables), std::move(cardinalities)) {
  WFBN_EXPECT(counts.size() == counts_.size(),
              "marginal counts do not match the table shape");
  counts_ = std::move(counts);
}

std::uint64_t MarginalTable::index_of(std::span<const State> states) const {
  WFBN_EXPECT(states.size() == variables_.size(), "state string shape mismatch");
  std::uint64_t index = 0;
  std::uint64_t stride = 1;
  for (std::size_t i = 0; i < states.size(); ++i) {
    WFBN_EXPECT(states[i] < cardinalities_[i], "state out of range");
    index += static_cast<std::uint64_t>(states[i]) * stride;
    stride *= cardinalities_[i];
  }
  return index;
}

std::uint64_t MarginalTable::total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts_) total += c;
  return total;
}

double MarginalTable::probability(std::uint64_t cell) const {
  const std::uint64_t m = total();
  if (m == 0) return 0.0;
  return static_cast<double>(counts_[cell]) / static_cast<double>(m);
}

void MarginalTable::merge(const MarginalTable& other) {
  WFBN_EXPECT(variables_ == other.variables_ &&
                  cardinalities_ == other.cardinalities_,
              "cannot merge marginal tables of different shape");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

MarginalTable MarginalTable::sum_out_to(std::span<const std::size_t> keep) const {
  // Each input variable's cell offset in the output: its kept position's
  // stride, or 0 when it is summed out.
  std::vector<std::uint64_t> out_step(variables_.size(), 0);
  std::vector<std::uint32_t> out_cards;
  out_cards.reserve(keep.size());
  std::uint64_t out_stride = 1;
  for (const std::size_t v : keep) {
    const auto it = std::find(variables_.begin(), variables_.end(), v);
    WFBN_EXPECT(it != variables_.end(),
                "sum_out_to keeps a variable not present in the table");
    const std::size_t pos = static_cast<std::size_t>(it - variables_.begin());
    WFBN_EXPECT(out_step[pos] == 0, "sum_out_to keeps a variable twice");
    out_step[pos] = out_stride;
    out_cards.push_back(cardinalities_[pos]);
    out_stride *= cardinalities_[pos];
  }
  MarginalTable out(std::vector<std::size_t>(keep.begin(), keep.end()),
                    std::move(out_cards));
  // One odometer pass over the input cells in layout order, carrying the
  // output cell along: no division per cell.
  std::vector<std::uint32_t> digit(variables_.size(), 0);
  std::uint64_t out_cell = 0;
  for (const std::uint64_t count : counts_) {
    out.counts_[out_cell] += count;
    for (std::size_t i = 0; i < digit.size(); ++i) {
      if (++digit[i] < cardinalities_[i]) {
        out_cell += out_step[i];
        break;
      }
      digit[i] = 0;
      out_cell -= (cardinalities_[i] - 1) * out_step[i];
    }
  }
  return out;
}

}  // namespace wfbn
