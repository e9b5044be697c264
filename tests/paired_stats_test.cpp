// bench/support/paired — the quartile definition every overhead gate and
// bench/pipeline/compare.py share. Expected values are what Python's
// statistics.quantiles(data, n=4) and statistics.median return for the
// same inputs, so a gate's median [q1, q3] reads the same in C++ and in
// the pipeline comparison.
#include <vector>

#include <gtest/gtest.h>

#include "bench/support/paired.hpp"

namespace {

using umon::bench::paired_overhead_pct;
using umon::bench::quartiles;

TEST(PairedStats, TenSamplesInterpolateBetweenRanks) {
  // Cut points at ranks 2.75 and 8.25 of the sorted sample.
  const auto q = quartiles({3.5, -1.25, 7.0, 0.5, 2.0, 9.75, -4.0, 1.5,
                            6.25, 0.0});
  EXPECT_DOUBLE_EQ(q.q1, -0.3125);
  EXPECT_DOUBLE_EQ(q.median, 1.75);
  EXPECT_DOUBLE_EQ(q.q3, 6.4375);
}

TEST(PairedStats, ElevenSamplesLandOnRanks) {
  // Cut points at ranks 3, 6 and 9: eleven rounds need no interpolation.
  const auto q = quartiles({2.98, 8.45, -3.95, 2.99, 1.17, -0.56, 3.22,
                            0.37, 3.7, 0.7, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.37);
  EXPECT_DOUBLE_EQ(q.median, 1.17);
  EXPECT_DOUBLE_EQ(q.q3, 3.22);
}

TEST(PairedStats, SmallSamples) {
  // Two samples extrapolate past both ends, as statistics.quantiles does.
  const auto two = quartiles({5.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.0);
  EXPECT_DOUBLE_EQ(two.median, 3.0);
  EXPECT_DOUBLE_EQ(two.q3, 6.0);
  const auto one = quartiles({4.5});
  EXPECT_DOUBLE_EQ(one.q1, 4.5);
  EXPECT_DOUBLE_EQ(one.median, 4.5);
  EXPECT_DOUBLE_EQ(one.q3, 4.5);
}

TEST(PairedStats, OverheadIsPerRoundRatio) {
  const std::vector<double> pct =
      paired_overhead_pct({102.0, 99.0, 150.0}, {100.0, 100.0, 120.0});
  ASSERT_EQ(pct.size(), 3u);
  EXPECT_DOUBLE_EQ(pct[0], 2.0);
  EXPECT_NEAR(pct[1], -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pct[2], 25.0);
}

}  // namespace
