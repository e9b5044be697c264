// umon-sca-fixture: path=src/netsim/seeded_rng.cpp
// Golden fixture: deterministic hot-path randomness comes from a seeded
// generator (umon::Rng in the real tree), never rand()/system_clock.
#include <cstdint>

struct SeededRng {
  std::uint64_t s = 1;
  std::uint64_t next() { return s = s * 6364136223846793005ULL + 1442695040888963407ULL; }
};

inline std::uint64_t pick_shard(SeededRng& rng, std::uint64_t shards) {
  return rng.next() % shards;
}
