#include "table/potential_table.hpp"

#include <utility>

#include "util/error.hpp"

namespace wfbn {

template <typename K>
BasicPotentialTable<K>::BasicPotentialTable(Codec codec, Partitions partitions,
                                            std::uint64_t sample_count)
    : codec_(std::move(codec)),
      partitions_(std::move(partitions)),
      samples_(sample_count) {}

template <typename K>
std::uint64_t BasicPotentialTable<K>::count_of(
    std::span<const State> states) const {
  const K key = codec_.encode_checked(states);
  return partitions_.count(key);
}

template <typename K>
bool BasicPotentialTable<K>::validate() const {
  if (partitions_.total_count() != samples_) return false;
  bool in_range = true;
  partitions_.for_each([&](K key, std::uint64_t count) {
    if (!codec_.key_in_range(key) || count == 0) in_range = false;
  });
  return in_range && partitions_.ownership_invariant_holds();
}

template class BasicPotentialTable<Key>;
template class BasicPotentialTable<WideKey>;

}  // namespace wfbn
