// Unit tests of the benchmark's own machinery: the knee search on
// synthetic latency curves, the percentile helpers and the work clock.
#include <gtest/gtest.h>

#include <cmath>

#include "common.hpp"
#include "loadgen.hpp"

namespace perfbench {
namespace {

/// A latency curve with a sharp knee: p99 stays flat below `capacity`
/// and explodes above it.
double synthetic_p99_ms(double rate, double capacity) {
  return rate < capacity ? 10.0 + 20.0 * rate / capacity : 500.0;
}

KneeResult search(double start, double capacity, int refine = 2,
                  int max_probes = 12) {
  const auto probe = [capacity](double rate) {
    return Probe{synthetic_p99_ms(rate, capacity) <= 100.0, false};
  };
  return search_knee(start, probe(start), 1.25, refine, max_probes,
                     start / 8.0, probe);
}

TEST(KneeSearch, ClimbsToTheRungBelowTheKnee) {
  const KneeResult k = search(100.0, 200.0, /*refine=*/0);
  // Ladder 100, 125, 156.25, 195.3125 pass; 244.140625 fails.
  EXPECT_TRUE(k.found);
  EXPECT_DOUBLE_EQ(k.knee, 195.3125);
  ASSERT_EQ(k.trail.size(), 4u);
  EXPECT_FALSE(k.trail.back().second);
}

TEST(KneeSearch, RefinementBisectsTheBracketInLogSpace) {
  const KneeResult k = search(100.0, 200.0, /*refine=*/2);
  EXPECT_LE(k.knee, 200.0);
  // Two bisections narrow the 1.25 bracket to a 1.25^(1/4) one.
  EXPECT_GE(k.knee, 200.0 / std::pow(1.25, 0.25));
  EXPECT_EQ(k.trail.size(), 6u);
}

TEST(KneeSearch, DescendsWhenTheStartFails) {
  const KneeResult k = search(400.0, 200.0, /*refine=*/0);
  // 400 fails; 320, 256 fail; 204.8 fails; 163.84 passes.
  EXPECT_TRUE(k.found);
  EXPECT_DOUBLE_EQ(k.knee, 163.84);
}

TEST(KneeSearch, AbortEndsTheSearchAtTheLastPass) {
  int probes = 0;
  const KneeResult k = search_knee(
      100.0, Probe{true}, 1.25, 2, 12, 10.0, [&probes](double rate) {
        ++probes;
        // The second probe fails to drain in bounded time.
        return rate < 130.0 ? Probe{true, false} : Probe{false, true};
      });
  EXPECT_EQ(probes, 2);
  EXPECT_DOUBLE_EQ(k.knee, 125.0);
}

TEST(KneeSearch, NothingPassingReadsTheFloor) {
  const KneeResult k = search_knee(
      100.0, Probe{false}, 2.0, 2, 12, 20.0,
      [](double) { return Probe{false, false}; });
  EXPECT_FALSE(k.found);
  EXPECT_DOUBLE_EQ(k.knee, 20.0);
  // 50 and 25 probed; 12.5 is below the floor.
  EXPECT_EQ(k.trail.size(), 2u);
}

TEST(KneeSearch, ReadsTheOfferedRateOfTheHighestPass) {
  // Probes report a realised offered rate 2 % below nominal.
  const auto probe = [](double rate) {
    return Probe{rate <= 200.0, false, rate * 0.98};
  };
  const KneeResult k = search_knee(100.0, probe(100.0), 1.25, 0, 12, 10.0, probe);
  EXPECT_DOUBLE_EQ(k.knee, 195.3125 * 0.98);
}

TEST(KneeSearch, RespectsTheProbeBudget) {
  const KneeResult k = search(1.0, 1e9, 2, /*max_probes=*/5);
  EXPECT_EQ(k.trail.size(), 5u);
  EXPECT_NEAR(k.knee, std::pow(1.25, 5), 1e-9);
}

TEST(Percentile, WindowedP99IsTheMedianWindowsTail) {
  // Three windows of 100; one holds a burst of stalls.
  std::vector<double> v(300, 1.0);
  for (int i = 0; i < 100; ++i) v[i] = 10.0 + i;  // window 0: 10..109
  v[150] = 50.0;                                  // window 1: one outlier
  // Window p99s: 108 (nearest rank), 1, 1 -> median 1.
  EXPECT_EQ(window_p99s(v, 100), (std::vector<double>{108.0, 1.0, 1.0}));
  PhaseResult p;
  p.window_p99s = window_p99s(v, 100);
  EXPECT_DOUBLE_EQ(p.p99(), 1.0);
  // A short tail joins the last window instead of standing alone.
  EXPECT_EQ(window_p99s(std::vector<double>(150, 2.0), 100).size(), 1u);
  // Segments of one phase pool their windows.
  PhaseResult later;
  later.window_p99s = {50.0, 60.0, 70.0};
  p.merge(later);
  EXPECT_DOUBLE_EQ(p.p99(), 55.0);
}

TEST(Percentile, NearestRankOnSortedInput) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 501.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(WorkClock, KeepsTheCalibrationKernelOffTheClock) {
  const double w0 = work_now();
  const double c0 = cpu_now();
  volatile double spin = 0.0;
  while (cpu_now() - c0 < 0.05) spin = spin + 1.0;  // past the next calibration
  const double w1 = work_now();  // bills the spin, then times the kernel
  const double w2 = work_now();
  EXPECT_GT(w1 - w0, 0.0);
  // The kernel takes ~0.5 ms; none of it lands between w1 and w2.
  EXPECT_LT(w2 - w1, 1e-4);
  EXPECT_GT(host_speed(), 0.0);
}

}  // namespace
}  // namespace perfbench
