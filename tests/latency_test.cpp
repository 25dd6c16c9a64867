// Direct tests of protocol::LatencyModel: sample statistics of the three
// kinds (mean / quantiles within tolerance), per-seed determinism, and
// the synchronous-limit ordering contract (a zero-latency model preserves
// issue order through the Network).
#include "protocol/latency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "protocol/sim_transport.hpp"
#include "sim/event_queue.hpp"

namespace voronet::protocol {
namespace {

std::vector<double> samples(const LatencyModel& model, std::uint64_t seed,
                            std::size_t n) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(model.sample(rng));
  return out;
}

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1));
  return xs[i];
}

TEST(LatencyModel, FixedIsExactAndNamed) {
  const LatencyModel model = LatencyModel::fixed(0.05);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(model.sample(rng), 0.05);
  EXPECT_DOUBLE_EQ(model.high_quantile(), 0.05);
  EXPECT_STREQ(model.name(), "fixed");
}

TEST(LatencyModel, UniformStatisticsWithinTolerance) {
  const LatencyModel model = LatencyModel::uniform(0.01, 0.09);
  const auto xs = samples(model, 42, 20'000);
  for (const double x : xs) {
    EXPECT_GE(x, 0.01);
    EXPECT_LT(x, 0.09);
  }
  // Mean (a+b)/2 = 0.05, quartiles at 0.03 / 0.07; 20k samples put the
  // sample statistics well within 2% of the analytic values.
  EXPECT_NEAR(mean(xs), 0.05, 0.001);
  EXPECT_NEAR(quantile(xs, 0.25), 0.03, 0.002);
  EXPECT_NEAR(quantile(xs, 0.75), 0.07, 0.002);
  EXPECT_DOUBLE_EQ(model.high_quantile(), 0.09);
  EXPECT_STREQ(model.name(), "uniform");
}

TEST(LatencyModel, LognormalFloorMedianAndTail) {
  const double floor = 0.005;
  const double median = 0.03;
  const LatencyModel model = LatencyModel::lognormal(floor, floor + median,
                                                     1.0);
  const auto xs = samples(model, 7, 40'000);
  for (const double x : xs) EXPECT_GE(x, floor);
  // The configured median is exact by construction (exp(sigma * z) has
  // median 1); 40k samples land within a few percent.
  EXPECT_NEAR(quantile(xs, 0.5), floor + median, 0.15 * median);
  // Heavy tail: the mean exceeds the median (exp(sigma^2/2) factor) and
  // the 97.7th percentile approximates high_quantile().
  EXPECT_GT(mean(xs), floor + median);
  EXPECT_NEAR(quantile(xs, 0.977), model.high_quantile(),
              0.3 * model.high_quantile());
  EXPECT_STREQ(model.name(), "lognormal");
}

TEST(LatencyModel, LognormalDegeneratesToFloorAtZeroMedian) {
  const LatencyModel model = LatencyModel::lognormal(0.02, 0.02, 1.0);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(model.sample(rng), 0.02);
}

TEST(LatencyModel, DeterministicPerSeed) {
  for (const LatencyModel& model :
       {LatencyModel::uniform(0.0, 0.1),
        LatencyModel::lognormal(0.001, 0.02, 0.8)}) {
    EXPECT_EQ(samples(model, 1234, 1'000), samples(model, 1234, 1'000))
        << model.name();
    EXPECT_NE(samples(model, 1234, 1'000), samples(model, 4321, 1'000))
        << model.name();
  }
}

TEST(LatencyModel, ZeroLatencyPreservesIssueOrder) {
  // The synchronous limit the differential quiescence tests rely on:
  // with delay 0 every message still travels through the event queue,
  // and FIFO tie-breaking must deliver them in exactly the issue order.
  NetworkConfig config;
  config.latency = LatencyModel::fixed(0.0);
  SimTransport net(config);
  sim::EventQueue& queue = net.queue();
  std::vector<std::uint64_t> delivered;
  net.set_sink([&](const Message& m) { delivered.push_back(m.version); });

  constexpr std::uint64_t kMessages = 50;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    Message m;
    m.type = sim::MessageKind::kVoronoiUpdate;
    m.src = 1;
    m.dst = 2;
    m.version = i;  // issue-order stamp
    net.send(m);
  }
  const auto run = queue.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  ASSERT_EQ(delivered.size(), kMessages);
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(delivered[i], i) << "delivery order diverged from issue order";
  }
}

}  // namespace
}  // namespace voronet::protocol
