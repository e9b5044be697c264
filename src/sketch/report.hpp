// The wire format a WaveSketch bucket uploads to the uMon analyzer:
// (w0, approximation coefficients A, retained detail coefficients D).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "wavelet/coeff.hpp"
#include "wavelet/reconstruct.hpp"

namespace umon::sketch {

// umon-sca: wire-struct
struct BucketReport {
  WindowId w0 = 0;              ///< absolute id of the first window
  std::uint32_t length = 0;     ///< number of windows covered (pre-padding)
  int levels = 0;               ///< effective decomposition depth
  std::vector<Count> approx;    ///< last-level approximation coefficients
  std::vector<wavelet::DetailCoeff> details;  ///< retained details

  [[nodiscard]] bool empty() const { return length == 0; }

  /// Bytes on the wire: w0 + length header, positional approximations, and
  /// details with level/index metadata (the alpha factor of Section 4.2).
  [[nodiscard]] std::size_t wire_bytes() const {
    return 12 + approx.size() * wavelet::kApproxWireBytes +
           details.size() * wavelet::kDetailWireBytes;
  }

  /// Reconstructed window counters (index 0 corresponds to window w0).
  [[nodiscard]] std::vector<double> reconstruct() const {
    return wavelet::reconstruct(approx, details, length, levels);
  }

  /// Reconstructed counter for one absolute window id (0 outside range).
  [[nodiscard]] double total() const {
    double sum = 0;
    for (Count a : approx) sum += static_cast<double>(a);
    return sum;
  }
};

// BucketReport owns heap-allocated coefficient vectors, so it is encoded
// field-by-field (serialize.cpp), never memcpy'd; what must hold is that
// moving a report between pipeline stages can never throw mid-batch.
static_assert(!std::is_trivially_copyable_v<BucketReport>,
              "encode field-wise; a memcpy would ship vector pointers");
static_assert(std::is_nothrow_move_constructible_v<BucketReport>);
static_assert(std::is_nothrow_move_assignable_v<BucketReport>);

}  // namespace umon::sketch
