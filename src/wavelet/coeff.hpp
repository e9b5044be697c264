// Wavelet coefficient types shared by the transform, the coefficient stores,
// and the reconstruction path.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/types.hpp"

namespace umon::wavelet {

/// A detail coefficient of the (un-normalized) Haar transform used by
/// WaveSketch. `level` is 0-based: level l pairs blocks of 2^l windows, so
///   d_l[j] = sum(block 2j at level l) - sum(block 2j+1 at level l).
// umon-sca: wire-struct
struct DetailCoeff {
  std::uint8_t level = 0;
  std::uint32_t index = 0;
  Count value = 0;

  friend bool operator==(const DetailCoeff&, const DetailCoeff&) = default;
};

static_assert(std::is_trivially_copyable_v<DetailCoeff>);
static_assert(std::is_standard_layout_v<DetailCoeff>);
static_assert(sizeof(DetailCoeff) == 16,
              "u8 level + u32 index + i64 value, padded to 16 in memory "
              "(the wire spends kDetailWireBytes, not sizeof)");

/// sqrt(2^(level+1)): divides an un-normalized detail coefficient at `level`
/// into its normalized Haar value. A caller weighing a whole level computes
/// it once.
inline double level_norm(int level) {
  return std::sqrt(static_cast<double>(std::uint64_t{2} << level));
}

/// L2 contribution of dropping an un-normalized detail coefficient: the
/// normalized Haar coefficient is value / sqrt(2^(level+1)), and by the
/// paper's Appendix A the squared reconstruction error of zeroing it equals
/// the squared normalized coefficient.
inline double l2_weight(const DetailCoeff& d) {
  return std::abs(static_cast<double>(d.value)) / level_norm(d.level);
}

/// Serialized size of one retained detail coefficient: 4-byte value plus
/// 2 bytes of metadata (level + index). This is the alpha > 1 factor in the
/// paper's compression-ratio analysis (alpha = 1.5 for 4-byte coefficients).
constexpr std::size_t kDetailWireBytes = 6;
/// Approximation coefficients are sent positionally: 4 bytes each.
constexpr std::size_t kApproxWireBytes = 4;

}  // namespace umon::wavelet
