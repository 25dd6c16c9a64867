#include "serve/open_loop.hpp"

#include <algorithm>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "protocol/flat_map.hpp"
#include "voronet/queries.hpp"

namespace voronet::serve {

namespace {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

std::vector<Arrival> draw_arrivals(const LoadConfig& config) {
  VORONET_EXPECT(config.rate > 0.0, "open loop: non-positive rate");
  VORONET_EXPECT(config.duration > 0.0, "open loop: non-positive duration");
  Rng rng(config.seed);
  const Vec2 hotspot{rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)};

  std::vector<Arrival> arrivals;
  for (double t = rng.exponential(config.rate); t < config.duration;
       t += rng.exponential(config.rate)) {
    const bool hot = rng.chance(config.hotspot_fraction);
    Arrival a;
    a.t = t;
    a.range = rng.chance(config.range_fraction);
    const Vec2 base = hot ? hotspot
                          : Vec2{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    a.a = {base.x + rng.uniform(-0.02, 0.02),
           base.y + rng.uniform(-0.02, 0.02)};
    if (a.range) {
      a.b = {a.a.x + rng.uniform(-0.1, 0.1), a.a.y + rng.uniform(-0.1, 0.1)};
      a.tol = config.range_tol;
    } else {
      a.tol = config.radius;
    }
    arrivals.push_back(a);
  }
  return arrivals;
}

void summarize(std::vector<double>& latencies, LoadReport& report) {
  report.completion_rate =
      report.offered == 0 ? 1.0
                          : static_cast<double>(report.completed) /
                                static_cast<double>(report.offered);
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  report.p50 = percentile(latencies, 0.50);
  report.p99 = percentile(latencies, 0.99);
  report.max_latency = latencies.back();
  double sum = 0.0;
  for (const double l : latencies) sum += l;
  report.mean_latency = sum / static_cast<double>(latencies.size());
}

Grade grade_tickets(const protocol::ProtocolHarness& harness,
                    const QueryServer& server,
                    const std::vector<QueryServer::TicketId>& tickets) {
  // Current-topology tickets only (header comment).  The mark table is
  // the FlatNodeMap::reserve path: sized once for the whole roster, zero
  // intermediate grows.
  const std::uint64_t final_version = harness.topology_version();
  const std::vector<NodeId>& roster = harness.roster();
  protocol::FlatNodeMap<char> marks;
  std::uint64_t truth_total = 0, hit_total = 0, match_total = 0;
  Grade g;
  for (const auto id : tickets) {
    const QueryServer::Ticket& t = server.ticket(id);
    if (!t.done || t.rejected || t.completed_version != final_version) {
      continue;
    }
    ++g.graded;
    match_total += t.matches.size();
    marks.clear();
    marks.reserve(roster.size());
    for (const NodeId m : t.matches) marks.insert(m, 1);
    for (const NodeId n : roster) {
      if (site_within_tolerance(t.spec.a, t.spec.b,
                                harness.node(n).position(), t.spec.tol)) {
        ++truth_total;
        if (marks.find(n) != nullptr) ++hit_total;
      }
    }
  }
  g.recall = truth_total == 0 ? 1.0
                              : static_cast<double>(hit_total) /
                                    static_cast<double>(truth_total);
  g.precision = match_total == 0 ? 1.0
                                 : static_cast<double>(hit_total) /
                                       static_cast<double>(match_total);
  return g;
}

LoadReport run_open_loop(protocol::ProtocolHarness& harness,
                         QueryServer& server, const LoadConfig& config) {
  protocol::Transport& transport = harness.network();
  const std::vector<Arrival> arrivals = draw_arrivals(config);
  std::vector<QueryServer::TicketId> tickets;
  for (const Arrival& a : arrivals) {
    transport.schedule(a.t, [&server, &tickets, a] {
      tickets.push_back(a.range ? server.submit_range(a.a, a.b, a.tol)
                                : server.submit_radius(a.a, a.tol));
    });
  }

  const auto run = harness.run_to_idle();
  LoadReport report;
  report.offered = arrivals.size();
  report.drained = !run.budget_exhausted;

  const ServeStats& stats = server.stats();
  report.admitted = stats.admitted;
  report.rejected = stats.rejected;
  report.completed = stats.completed;
  report.cache_hits = stats.cache_hits;
  report.batches = stats.batches;

  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  for (const auto id : tickets) {
    const QueryServer::Ticket& t = server.ticket(id);
    if (t.done && !t.rejected) latencies.push_back(t.latency());
  }
  summarize(latencies, report);

  const Grade g = grade_tickets(harness, server, tickets);
  report.graded = g.graded;
  report.recall = g.recall;
  report.precision = g.precision;
  return report;
}

}  // namespace voronet::serve
