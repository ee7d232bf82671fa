#include "search/sa.h"

#include <string>

#include "common/hashing.h"

namespace pipette::search {

std::uint64_t derive_seed(std::uint64_t base, std::string_view key) {
  return common::hash_string(common::hash_mix(base), key);
}

std::uint64_t chain_seed(std::uint64_t seed, int chain) {
  return chain > 0 ? derive_seed(seed, "mc-chain-" + std::to_string(chain)) : seed;
}

}  // namespace pipette::search
