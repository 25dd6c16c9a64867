// Tests of the observability layer (src/obs): the causal tracer's span
// model and Chrome trace_event export, trace determinism across replays,
// span-tree well-formedness over a real churn-plus-queries run, the
// windowed metrics sampler's conservation invariant, the flight
// recorder's bounded rings and its dump on a planted fuzzer finding --
// and the counting-model audit that a re-issued query bills exactly ONE
// operation record.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace voronet {
namespace {

using scenario::Event;
using scenario::Report;
using scenario::Runner;
using scenario::Scenario;

// ---------------------------------------------------------------------------
// Tracer unit tests
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.begin_span(1.0, "span", 3), obs::kNoSpan);
  EXPECT_EQ(t.instant(1.0, "inst", 3), obs::kNoSpan);
  t.end_span(obs::kNoSpan, 2.0);  // must be safe
  t.arg(obs::kNoSpan, "k", std::uint64_t{1});
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, SpanModelAndChromeExport) {
  obs::Tracer t;
  t.enable();
  const obs::SpanId root = t.begin_span(0.001, "query", 7);
  const obs::SpanId child = t.begin_span(0.002, "serve", 9, root);
  const obs::SpanId mark = t.instant(0.003, "route_hop", 9, child);
  t.arg(root, "query", std::uint64_t{42});
  t.arg(child, "kind", "range");
  t.end_span(child, 0.004);
  t.end_span(root, 0.005);
  const obs::SpanId orphan = t.begin_span(0.006, "xfer:query", -1);
  // orphan is deliberately never ended: it must export as unfinished.

  ASSERT_EQ(t.records().size(), 4u);
  EXPECT_EQ(root, 1u);  // ids are 1-based insertion order
  EXPECT_EQ(child, 2u);
  EXPECT_EQ(mark, 3u);
  EXPECT_EQ(orphan, 4u);
  EXPECT_EQ(t.records()[1].parent, root);
  EXPECT_TRUE(t.records()[0].is_span);
  EXPECT_FALSE(t.records()[2].is_span);

  const Json doc = t.to_chrome_json();
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 4u);

  const Json& q = events->item(0);
  EXPECT_EQ(q.at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(q.at("ts").as_double(), 1000.0);   // sim s -> us
  EXPECT_DOUBLE_EQ(q.at("dur").as_double(), 4000.0);  // 0.001 .. 0.005
  EXPECT_EQ(q.at("tid").as_int(), 7);
  EXPECT_EQ(q.at("args").at("span").as_uint(), root);
  EXPECT_EQ(q.at("args").find("parent"), nullptr);  // roots omit parent
  EXPECT_EQ(q.at("args").at("query").as_uint(), 42u);

  const Json& s = events->item(1);
  EXPECT_EQ(s.at("args").at("parent").as_uint(), root);
  EXPECT_EQ(s.at("args").at("kind").as_string(), "range");

  const Json& i = events->item(2);
  EXPECT_EQ(i.at("ph").as_string(), "i");
  EXPECT_EQ(i.at("s").as_string(), "t");
  EXPECT_EQ(i.at("args").at("parent").as_uint(), child);

  const Json& u = events->item(3);
  EXPECT_EQ(u.at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(u.at("dur").as_double(), 0.0);  // clamped, flagged
  EXPECT_TRUE(u.at("unfinished").as_bool());
  EXPECT_EQ(u.at("tid").as_int(), 0);  // node -1 lands on track 0
}

// ---------------------------------------------------------------------------
// Flight-recorder unit tests
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingIsBoundedAndKeepsTheNewest) {
  obs::FlightRecorder fr;
  EXPECT_FALSE(fr.enabled());
  fr.record(1, 0.0, obs::FlightEvent::kSend, sim::MessageKind::kQuery, 2);
  fr.enable(4);
  ASSERT_TRUE(fr.enabled());
  for (std::uint64_t i = 0; i < 10; ++i) {
    fr.record(1, 0.1 * static_cast<double>(i), obs::FlightEvent::kSend,
              sim::MessageKind::kQuery, 2, /*ref=*/i);
  }
  fr.record(5, 0.99, obs::FlightEvent::kCrash, sim::MessageKind::kCount, -1);

  const Json doc = fr.to_json();
  EXPECT_EQ(doc.at("per_node_capacity").as_uint(), 4u);
  const Json& nodes = doc.at("nodes");
  ASSERT_EQ(nodes.size(), 2u);
  // Nodes ascending; node 1's ring holds only the NEWEST 4 of 10 entries,
  // oldest -> newest, and reports how many the ring dropped.
  const Json& n1 = nodes.item(0);
  EXPECT_EQ(n1.at("node").as_int(), 1);
  EXPECT_EQ(n1.at("dropped").as_uint(), 6u);
  const Json& events = n1.at("events");
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events.item(i).at("ref").as_uint(), 6u + i);
  }
  const Json& n5 = nodes.item(1);
  EXPECT_EQ(n5.at("node").as_int(), 5);
  EXPECT_EQ(n5.at("events").item(0).at("event").as_string(), "crash");
  // enable() resets; disabling drops all state.
  fr.enable(0);
  EXPECT_FALSE(fr.enabled());
  EXPECT_EQ(fr.to_json().at("nodes").size(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: tracing a scenario run
// ---------------------------------------------------------------------------

/// Churn + loss + a query stream: enough pressure that the trace contains
/// route hops, serves, transfers with retransmissions -- and usually
/// re-issued epochs.
Scenario traced_scenario() {
  Scenario s;
  s.name = "obs-traced";
  s.population = 120;
  s.seed = 21;
  s.latency = protocol::LatencyModel::uniform(0.005, 0.05);
  s.loss = 0.12;
  s.failure_detect_delay = 0.25;
  s.timeline = {
      Event::join_burst(0.0, 10, 1.0),
      Event::crash(0.3, 4, 0.6, 16),
      Event::query_stream(0.0, 25, 1.2),
      Event::quiesce(1.5),
  };
  return s;
}

TEST(TraceDeterminism, SameScenarioSameSeedByteIdenticalTrace) {
  const Scenario s = traced_scenario();
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    Runner runner(s);
    runner.set_trace();
    const Report rep = runner.run();
    EXPECT_TRUE(rep.quiesced);
    *out = runner.harness().harness().tracer().to_chrome_json().str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_GT(first.size(), 10000u) << "trace suspiciously small";
  EXPECT_EQ(first, second) << "trace replay diverged";
}

TEST(TraceDeterminism, UntracedRunIsUnperturbed) {
  // Enabling the tracer must not change the run itself: the report of a
  // traced run is byte-identical to the untraced one (spans ride along,
  // they never feed back).
  const Scenario s = traced_scenario();
  Runner plain(s);
  const std::string a = plain.run().to_json().str();
  Runner traced(s);
  traced.set_trace();
  traced.record_flight();
  const std::string b = traced.run().to_json().str();
  EXPECT_EQ(a, b);
}

TEST(SpanTree, WellFormedOverARealRun) {
  const Scenario s = traced_scenario();
  Runner runner(s);
  runner.set_trace();
  const Report rep = runner.run();
  EXPECT_TRUE(rep.quiesced);
  const auto& records = runner.harness().harness().tracer().records();
  ASSERT_FALSE(records.empty());

  std::map<std::string, std::size_t> census;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    // Ids are insertion order, so a parent always precedes its children
    // (causality cannot point forward in simulated execution order).
    EXPECT_EQ(r.id, i + 1);
    if (r.parent != obs::kNoSpan) {
      ASSERT_LT(r.parent, r.id) << "parent assigned after child";
      const auto& p = records[r.parent - 1];
      EXPECT_LE(p.begin, r.begin)
          << r.name << " begins before its parent " << p.name;
    }
    if (r.is_span && r.end >= r.begin) {
      EXPECT_GE(r.end, r.begin);
    }
    if (!r.is_span) {
      EXPECT_DOUBLE_EQ(r.end, r.begin) << "instants are points in time";
    }
    ++census[r.name];
  }

  // The span vocabulary the harness promises (DESIGN.md, Observability):
  // query roots, epoch + serve spans, route-hop instants, transfers.
  EXPECT_EQ(census["query"], rep.queries);
  EXPECT_GE(census["epoch"], rep.queries);  // >= one epoch per query
  EXPECT_GT(census["serve"], 0u);
  EXPECT_GT(census["route_hop"], 0u);
  EXPECT_GT(census["xfer:query_forward"], 0u);

  // Every epoch span's parent is a query root; every serve hangs under an
  // epoch or another serve.
  for (const auto& r : records) {
    if (r.name == "epoch") {
      ASSERT_NE(r.parent, obs::kNoSpan);
      EXPECT_EQ(records[r.parent - 1].name, "query");
    }
    if (r.name == "serve") {
      ASSERT_NE(r.parent, obs::kNoSpan);
      const std::string& pname = records[r.parent - 1].name;
      EXPECT_TRUE(pname == "epoch" || pname == "serve")
          << "serve parented to " << pname;
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics sampler: windowed time series in the Report
// ---------------------------------------------------------------------------

TEST(SamplerWindows, ConserveMessageCountsAndStayOnGrid) {
  Scenario s = traced_scenario();
  s.sample_interval = 0.25;
  Runner runner(s);
  const Report rep = runner.run();
  EXPECT_TRUE(rep.quiesced);
  EXPECT_TRUE(rep.converged);
  EXPECT_DOUBLE_EQ(rep.sample_interval, 0.25);
  EXPECT_FALSE(rep.windows_truncated);
  ASSERT_GE(rep.windows.size(), 6u);  // >= 1.5s of timeline at 0.25s

  // Conservation: the sampler is passive, so per-kind window deltas sum
  // EXACTLY to the end-of-run report deltas -- no message is double
  // counted or lost at a boundary.
  std::array<std::uint64_t, sim::kMessageKindCount> sums{};
  std::uint64_t retransmits = 0;
  std::uint64_t dropped = 0;
  for (const obs::Window& w : rep.windows) {
    for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
      sums[k] += w.messages[k];
    }
    retransmits += w.retransmits;
    dropped += w.dropped;
  }
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    EXPECT_EQ(sums[k], rep.messages[k])
        << "window sums diverge for kind "
        << sim::message_kind_name(static_cast<sim::MessageKind>(k));
  }
  EXPECT_EQ(retransmits, rep.wire.retransmits);
  EXPECT_EQ(dropped, rep.wire.dropped);

  // Boundaries sit on the fixed grid t0 + k * dt (the last window may be
  // the partial remainder); windows are contiguous.
  for (std::size_t i = 0; i + 1 < rep.windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rep.windows[i].end, rep.windows[i + 1].start);
    EXPECT_NEAR(rep.windows[i].end - rep.windows[i].start, 0.25, 1e-9);
  }
  // Gauges carry the run's shape: the final window shows a settled system.
  const obs::Window& last = rep.windows.back();
  EXPECT_EQ(last.gauges.in_flight, 0u);
  EXPECT_EQ(last.gauges.pending_queries, 0u);
  EXPECT_EQ(last.gauges.stale_views, 0u);
  EXPECT_EQ(last.gauges.population, rep.final_population);

  // Sampling must not perturb the run: message totals match the
  // unsampled replay exactly.
  Scenario plain = traced_scenario();
  const Report base = scenario::run_scenario(plain);
  EXPECT_EQ(rep.total_messages, base.total_messages);
  EXPECT_EQ(rep.wire.transmissions, base.wire.transmissions);
}

// ---------------------------------------------------------------------------
// Counting-model audit: one operation record per query
// ---------------------------------------------------------------------------

TEST(CountingModel, BillsReissuedQueryOnce) {
  // A re-issued query runs extra flood epochs, but it is still ONE client
  // operation: the metrics must record exactly one kQuery operation per
  // completed query, with the re-issue traffic absorbed into that record
  // -- never one record per epoch, which would silently dilute the
  // per-operation message mean the paper's counting model reports.
  const Scenario s = traced_scenario();
  Runner runner(s);
  const Report rep = runner.run();
  EXPECT_TRUE(rep.quiesced);
  ASSERT_GT(rep.queries, 0u);
  EXPECT_EQ(rep.completed, rep.queries);
  ASSERT_GT(rep.reissued, 0u)
      << "scenario did not provoke a re-issue; the billing audit needs one";

  // A snapshot: a reference into the temporary copy would dangle.
  const sim::Metrics metrics = runner.harness().harness().network().metrics();
  const auto& ops = metrics.operation_messages(sim::OperationKind::kQuery);
  EXPECT_EQ(ops.count(), rep.completed)
      << "re-issued epochs must bill to one operation record";
  // Each completed query generated wire work, so the mean is positive and
  // at least the route length (every hop is a message).
  EXPECT_GT(ops.mean(), 0.0);
  const auto& hops = metrics.hops(sim::OperationKind::kQuery);
  EXPECT_EQ(hops.count(), rep.completed);
  EXPECT_GE(ops.mean(), hops.mean());
}

// ---------------------------------------------------------------------------
// Fuzzer explainability: flight recorder rides along on findings
// ---------------------------------------------------------------------------

TEST(FuzzerExplainability, PlantedFaultDumpsTheFlightRecorder) {
  // Plant a guaranteed finding: a lossy scenario cannot settle every
  // reliable transfer in a single attempt, so a max_transfer_attempts
  // ceiling of 0.5 must fire.  The verdict carries the flight-recorder
  // dump -- parseable JSON with per-node rings -- which is what
  // scenario_fuzzer writes beside the minimized reproducer.
  Scenario s;
  s.name = "planted";
  s.population = 60;
  s.seed = 5;
  s.latency = protocol::LatencyModel::fixed(0.02);
  s.loss = 0.2;
  s.timeline = {
      Event::join_burst(0.0, 8, 0.5),
      Event::query_stream(0.0, 6, 0.5),
      Event::quiesce(0.8),
  };
  scenario::OracleLimits limits;
  limits.max_transfer_attempts = 0.5;
  const scenario::Verdict v = scenario::run_oracle(s, limits);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.violation.find("transfer attempts"), std::string::npos)
      << "violation did not name the clause: " << v.violation;
  ASSERT_FALSE(v.flight_recorder.empty());

  const Json dump = Json::parse(v.flight_recorder);
  EXPECT_GT(dump.at("per_node_capacity").as_uint(), 0u);
  const Json& nodes = dump.at("nodes");
  ASSERT_GT(nodes.size(), 0u);
  // Every per-node ring is bounded and its entries are globally ordered.
  std::uint64_t capacity = dump.at("per_node_capacity").as_uint();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Json& events = nodes.item(i).at("events");
    EXPECT_LE(events.size(), capacity);
    for (std::size_t j = 0; j + 1 < events.size(); ++j) {
      EXPECT_LT(events.item(j).at("seq").as_uint(),
                events.item(j + 1).at("seq").as_uint());
    }
  }
  // A clean run under default limits keeps the dump empty (the verdict
  // only ships an explanation when there is something to explain).
  const scenario::Verdict clean = scenario::run_oracle(s);
  EXPECT_TRUE(clean.ok) << clean.violation;
  EXPECT_TRUE(clean.flight_recorder.empty());
}

}  // namespace
}  // namespace voronet
