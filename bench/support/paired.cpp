#include "bench/support/paired.hpp"

#include <algorithm>
#include <cstddef>

namespace umon::bench {

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive"): cut point i of 4 sits at
  // 1-based rank i*(n+1)/4, clamped so it interpolates (or extrapolates)
  // between ranks 1..n-1 and 2..n.
  auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) -
                         static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  const double median =
      n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return {cut(1), median, cut(3)};
}

std::vector<double> paired_overhead_pct(const std::vector<double>& leg,
                                        const std::vector<double>& bare) {
  std::vector<double> pct;
  pct.reserve(leg.size());
  for (std::size_t i = 0; i < leg.size() && i < bare.size(); ++i) {
    pct.push_back((leg[i] / bare[i] - 1.0) * 100.0);
  }
  return pct;
}

}  // namespace umon::bench
