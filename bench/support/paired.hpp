// Paired-round statistics for the overhead gates. A gate times its bare
// and instrumented legs back to back in each round, so drift common to both
// legs cancels in the per-round ratio, and the median over rounds discards
// the rounds one leg of which was descheduled.
#pragma once

#include <vector>

namespace umon::bench {

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// (q1, median, q3) of a non-empty sample, as Python's
/// statistics.quantiles(n=4) (the default "exclusive" method) and
/// statistics.median give them — the definition bench/pipeline/compare.py
/// uses. A single sample is its own three quartiles.
[[nodiscard]] Quartiles quartiles(std::vector<double> v);

/// Per-round overhead in percent: (leg[i] / bare[i] - 1) * 100. Both
/// vectors hold one time per round, in round order.
[[nodiscard]] std::vector<double> paired_overhead_pct(
    const std::vector<double>& leg, const std::vector<double>& bare);

}  // namespace umon::bench
