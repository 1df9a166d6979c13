#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/prng.hpp"

namespace nestflow {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeEqualsWhole) {
  Prng prng(77);
  std::vector<double> values(1000);
  for (auto& v : values) v = prng.next_double() * 100.0;

  RunningStats whole;
  for (const double v : values) whole.add(v);

  // Merge property over an arbitrary split.
  RunningStats left, right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < 317 ? left : right).add(values[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, ZeroBinsRejected) {
  EXPECT_THROW(Histogram h(0), std::invalid_argument);
}

TEST(Histogram, AddAndQuery) {
  Histogram h(10);
  h.add(3);
  h.add(3);
  h.add(7, 4);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bin(3), 2u);
  EXPECT_EQ(h.bin(7), 4u);
  EXPECT_EQ(h.max_value(), 7u);
  EXPECT_NEAR(h.mean(), (3.0 * 2 + 7.0 * 4) / 6.0, 1e-12);
}

TEST(Histogram, OverflowClampsToLastBin) {
  Histogram h(4);
  h.add(100);
  EXPECT_EQ(h.bin(3), 1u);
}

TEST(Histogram, Quantiles) {
  Histogram h(100);
  for (std::size_t v = 1; v <= 100; ++v) h.add(v - 1);
  EXPECT_EQ(h.quantile(0.5), 49u);
  EXPECT_EQ(h.quantile(1.0), 99u);
  EXPECT_EQ(h.quantile(0.01), 0u);
}

TEST(Histogram, MergeChecksBinCount) {
  Histogram a(4), b(5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, MergeAddsBins) {
  Histogram a(4), b(4);
  a.add(1);
  b.add(1);
  b.add(2);
  a.merge(b);
  EXPECT_EQ(a.bin(1), 2u);
  EXPECT_EQ(a.bin(2), 1u);
  EXPECT_EQ(a.total(), 3u);
}

TEST(Percentile, Basics) {
  std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 5.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(static_cast<void>(percentile({}, 0.5)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nestflow
