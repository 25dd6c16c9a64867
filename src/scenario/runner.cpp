#include "scenario/runner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/expect.hpp"
#include "common/json.hpp"
#include "stats/summary.hpp"

namespace voronet::scenario {

namespace {

protocol::HarnessConfig harness_config(const Scenario& s) {
  validate(s);  // runs before the member harness is built
  protocol::HarnessConfig config;
  // Capacity comfortably above everything the timeline can add; dmin and
  // the routing bounds derive from it, so a serialized n_max pins the
  // overlay geometry exactly.
  config.overlay.n_max =
      s.n_max > 0 ? s.n_max : (s.population + s.scheduled_joins()) * 2 + 64;
  config.overlay.seed = s.seed;
  config.network.latency = s.latency;
  config.network.drop_probability = s.loss;
  config.network.max_retries = s.max_retries;
  config.network.seed = s.seed ^ 0xfeedULL;
  config.failure_detect_delay = s.failure_detect_delay;
  config.seed = s.seed ^ 0x907aULL;
  return config;
}

workload::DistributionConfig workload_config(const Scenario& s) {
  return s.workload == "power_law"
             ? workload::DistributionConfig::power_law(s.power_law_alpha)
             : workload::DistributionConfig::uniform();
}

Json stats_json(const protocol::NetworkStats& w) {
  return Json::object()
      .set("sends", Json::integer(w.sends))
      .set("transmissions", Json::integer(w.transmissions))
      .set("delivered", Json::integer(w.delivered))
      .set("duplicates", Json::integer(w.duplicates))
      .set("dropped", Json::integer(w.dropped))
      .set("retransmits", Json::integer(w.retransmits))
      .set("abandoned", Json::integer(w.abandoned))
      .set("acks", Json::integer(w.acks))
      .set("injected_duplicates", Json::integer(w.injected_duplicates))
      .set("stalled_deferred", Json::integer(w.stalled_deferred))
      .set("wire_bytes", Json::integer(w.wire_bytes));
}

}  // namespace

Json Report::to_json() const {
  Json doc = Json::object();
  doc.set("scenario", Json::object()
                          .set("name", Json::string(name))
                          .set("seed", Json::integer(seed))
                          .set("latency", Json::string(latency_name))
                          .set("loss", Json::number(loss)));
  doc.set("quiesced", Json::boolean(quiesced));
  doc.set("converged", Json::boolean(converged));
  doc.set("final_audit", Json::object()
                             .set("stale", Json::integer(final_stale))
                             .set("missing", Json::integer(final_missing))
                             .set("dangling", Json::integer(final_dangling)));
  doc.set("population", Json::object()
                            .set("initial", Json::integer(initial_population))
                            .set("final", Json::integer(final_population)));
  doc.set("operations", Json::object()
                            .set("joins", Json::integer(joins))
                            .set("leaves", Json::integer(leaves))
                            .set("crashes", Json::integer(crashes))
                            .set("revives", Json::integer(revives))
                            .set("stalls", Json::integer(stalls)));
  doc.set("sim", Json::object()
                     .set("duration", Json::number(duration))
                     .set("convergence_time", Json::number(convergence_time))
                     .set("events_processed",
                          Json::integer(events_processed)));
  doc.set("wire", stats_json(wire));
  doc.set("transfers",
          Json::object()
              .set("settled", Json::integer(transfers_settled))
              .set("mean_attempts", Json::number(mean_transfer_attempts))
              .set("max_attempts", Json::number(max_transfer_attempts)));
  Json per_type = Json::object();
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    per_type.set(
        std::string(sim::message_kind_name(static_cast<sim::MessageKind>(k))),
        Json::integer(messages[k]));
  }
  doc.set("messages_by_type", std::move(per_type));
  doc.set("total_messages", Json::integer(total_messages));
  Json per_type_bytes = Json::object();
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    per_type_bytes.set(
        std::string(sim::message_kind_name(static_cast<sim::MessageKind>(k))),
        Json::integer(wire_bytes_by_kind[k]));
  }
  doc.set("wire_bytes_by_type", std::move(per_type_bytes));
  doc.set("total_wire_bytes", Json::integer(total_wire_bytes));
  doc.set(
      "queries",
      Json::object()
          .set("issued", Json::integer(queries))
          .set("completed", Json::integer(completed))
          .set("identical", Json::integer(identical))
          .set("exact", Json::integer(exact))
          .set("reissued", Json::integer(reissued))
          .set("max_epochs", Json::integer(max_epochs))
          .set("branch_failovers", Json::integer(branch_failovers))
          .set("mean_recall", Json::number(mean_recall))
          .set("min_recall", Json::number(min_recall))
          .set("mean_precision", Json::number(mean_precision))
          .set("min_precision", Json::number(min_precision))
          .set("p50_completion", Json::number(p50_completion))
          .set("p99_completion", Json::number(p99_completion))
          .set("mean_route_hops", Json::number(mean_route_hops))
          .set("wire_msgs_per_query", Json::number(wire_msgs_per_query)));
  Json rows = Json::array();
  for (const Barrier& b : barriers) {
    rows.push(Json::object()
                  .set("at", Json::number(b.at))
                  .set("nodes", Json::integer(b.nodes))
                  .set("stale", Json::integer(b.stale))
                  .set("missing", Json::integer(b.missing))
                  .set("dangling", Json::integer(b.dangling))
                  .set("pending_joins", Json::integer(b.pending_joins))
                  .set("in_flight", Json::integer(b.in_flight))
                  .set("converged", Json::boolean(b.converged)));
  }
  doc.set("barriers", std::move(rows));
  if (sample_interval > 0.0) {
    Json sampling = Json::object();
    sampling.set("interval", Json::number(sample_interval));
    sampling.set("truncated", Json::boolean(windows_truncated));
    Json ws = Json::array();
    for (const obs::Window& w : windows) {
      Json jw = Json::object()
                    .set("start", Json::number(w.start))
                    .set("end", Json::number(w.end));
      Json per = Json::object();
      for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
        if (w.messages[k] == 0) continue;  // keep the series readable
        per.set(std::string(sim::message_kind_name(
                    static_cast<sim::MessageKind>(k))),
                Json::integer(w.messages[k]));
      }
      jw.set("messages_by_type", std::move(per));
      jw.set("duplicates", Json::integer(w.duplicates));
      jw.set("retransmits", Json::integer(w.retransmits));
      jw.set("dropped", Json::integer(w.dropped));
      jw.set("gauges",
             Json::object()
                 .set("in_flight", Json::integer(w.gauges.in_flight))
                 .set("stalled_backlog",
                      Json::integer(w.gauges.stalled_backlog))
                 .set("pending_queries",
                      Json::integer(w.gauges.pending_queries))
                 .set("stale_views", Json::integer(w.gauges.stale_views))
                 .set("population", Json::integer(w.gauges.population)));
      ws.push(std::move(jw));
    }
    sampling.set("windows", std::move(ws));
    doc.set("sampling", std::move(sampling));
  }
  return doc;
}

Runner::Runner(Scenario s)
    : scenario_(std::move(s)), qh_(harness_config(scenario_)) {}

Report Runner::run() {
  VORONET_EXPECT(!ran_, "a Runner executes its scenario once");
  ran_ = true;

  Report rep;
  rep.name = scenario_.name;
  rep.seed = scenario_.seed;
  rep.latency_name = scenario_.latency.name();
  rep.loss = scenario_.loss;

  qh_.populate(scenario_.population, scenario_.seed,
               workload_config(scenario_), scenario_.populate_spacing);
  rep.initial_population = qh_.harness().node_count();

  protocol::ProtocolHarness& h = qh_.harness();
  // Observability arms at the timeline origin: the populate phase is
  // excluded from the Report's deltas, so it is excluded from the trace /
  // recorder / time series too.
  if (trace_) h.tracer().enable();
  if (flight_capacity_ > 0) h.recorder().enable(flight_capacity_);
  const double t0 = h.queue().now();
  const std::size_t processed_before = h.queue().processed();
  const protocol::NetworkStats wire_before = h.network().stats();
  std::array<std::uint64_t, sim::kMessageKindCount> msgs_before{};
  std::array<std::uint64_t, sim::kMessageKindCount> bytes_before{};
  const sim::Metrics metrics_before = h.network().metrics();
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    msgs_before[k] = metrics_before.messages(static_cast<sim::MessageKind>(k));
    bytes_before[k] =
        metrics_before.wire_bytes(static_cast<sim::MessageKind>(k));
  }

  // Windowed time series.  The sampler is passive: the Runner sequences
  // its drains on the window boundaries (run_until advances the clock to
  // the horizon even when the queue empties early), so sampling schedules
  // no events and cannot perturb the replayed event order.
  obs::MetricsSampler sampler(scenario_.sample_interval);
  const auto snapshot = [&h] {
    obs::CounterSnapshot c;
    const sim::Metrics metrics = h.network().metrics();
    for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
      c.messages[k] = metrics.messages(static_cast<sim::MessageKind>(k));
    }
    c.duplicates = h.network().stats().duplicates;
    c.retransmits = h.network().stats().retransmits;
    c.dropped = h.network().stats().dropped;
    return c;
  };
  const auto gauges = [&h] {
    obs::Gauges g;
    g.in_flight = h.network().in_flight();
    g.stalled_backlog = h.network().stalled_backlog();
    g.pending_queries = h.pending_queries();
    const auto audit = h.verify_views();
    g.stale_views = audit.stale + audit.missing;
    g.population = h.node_count();
    return g;
  };
  sampler.begin(t0, snapshot());
  /// Advance to `horizon`, closing a window at every sample boundary on
  /// the way; returns true when the event budget ran out.
  const auto drain_until = [&](double horizon) {
    while (sampler.active() && sampler.next_boundary() <= horizon) {
      const double b = sampler.next_boundary();
      const bool exhausted = h.run_until(b).budget_exhausted;
      sampler.take(b, snapshot(), gauges());
      if (exhausted) return true;
    }
    return h.run_until(horizon).budget_exhausted;
  };
  /// Drain to an empty queue in boundary-sized steps (so a long quiesce
  /// still yields windows); falls back to one plain run_to_idle once the
  /// sampler is off or truncated.
  const auto drain_to_idle = [&] {
    while (sampler.active() && !h.queue().idle()) {
      const double b = sampler.next_boundary();
      const bool exhausted = h.run_until(b).budget_exhausted;
      sampler.take(b, snapshot(), gauges());
      if (exhausted) return true;
    }
    return h.run_to_idle().budget_exhausted;
  };

  // Timeline-derived seed: decoupled from the overlay / network streams
  // so editing the network parameterization does not reshuffle the
  // workload draws.
  const auto ctx = std::make_shared<protocol::QueryHarness::ScheduleContext>(
      scenario_.seed ^ 0x5ce0a10ULL, workload_config(scenario_));

  rep.quiesced = true;
  for (const Event& e : scenario_.timeline) {
    if (e.kind == EventKind::kQuiesce || e.kind == EventKind::kVerifyBarrier) {
      // Barriers sequence the run: advance to the barrier instant, then
      // (for quiesce) drain, (for verify) record the differential audit.
      if (t0 + e.at > h.queue().now()) {
        if (drain_until(t0 + e.at)) {
          rep.quiesced = false;
          break;
        }
      }
      if (e.kind == EventKind::kQuiesce) {
        if (drain_to_idle()) {
          rep.quiesced = false;
          break;
        }
      } else {
        const auto audit = h.verify_views();
        Report::Barrier row;
        row.at = h.queue().now() - t0;
        row.nodes = h.node_count();
        row.stale = audit.stale;
        row.missing = audit.missing;
        row.dangling = audit.dangling;
        row.pending_joins = h.pending_joins();
        row.in_flight = h.network().in_flight();
        row.converged = audit.converged();
        rep.barriers.push_back(row);
      }
      continue;
    }
    qh_.schedule_event(e, t0, ctx);
  }

  if (rep.quiesced) {
    rep.quiesced = !drain_to_idle();
  }
  // Close the final (partial) window so the per-kind window sums equal
  // the end-of-run deltas exactly; no-op when sampling is off.
  sampler.take(h.queue().now(), snapshot(), gauges());
  rep.sample_interval = scenario_.sample_interval;
  rep.windows = sampler.windows();
  rep.windows_truncated = sampler.truncated();

  const auto final_audit = h.verify_views();
  rep.converged = final_audit.converged();
  rep.final_stale = final_audit.stale;
  rep.final_missing = final_audit.missing;
  rep.final_dangling = final_audit.dangling;
  rep.duration = h.queue().now() - t0;
  rep.convergence_time = std::max(0.0, h.last_apply_time() - t0);
  rep.events_processed = h.queue().processed() - processed_before;
  rep.final_population = h.node_count();
  rep.joins = ctx->joins;
  rep.leaves = ctx->leaves;
  rep.crashes = ctx->crashes;
  rep.revives = ctx->revives;
  rep.stalls = ctx->stalls;

  const protocol::NetworkStats& wire_after = h.network().stats();
  rep.wire.sends = wire_after.sends - wire_before.sends;
  rep.wire.transmissions = wire_after.transmissions - wire_before.transmissions;
  rep.wire.delivered = wire_after.delivered - wire_before.delivered;
  rep.wire.duplicates = wire_after.duplicates - wire_before.duplicates;
  rep.wire.dropped = wire_after.dropped - wire_before.dropped;
  rep.wire.retransmits = wire_after.retransmits - wire_before.retransmits;
  rep.wire.abandoned = wire_after.abandoned - wire_before.abandoned;
  rep.wire.acks = wire_after.acks - wire_before.acks;
  rep.wire.injected_duplicates =
      wire_after.injected_duplicates - wire_before.injected_duplicates;
  rep.wire.stalled_deferred =
      wire_after.stalled_deferred - wire_before.stalled_deferred;
  rep.wire.wire_bytes = wire_after.wire_bytes - wire_before.wire_bytes;
  // Transfer-attempt distribution (whole run: the populate phase runs
  // under the same loss model, so its attempts belong in the picture).
  const sim::Metrics metrics_after = h.network().metrics();
  const stats::StreamingSummary& attempts = metrics_after.transfer_attempts();
  rep.transfers_settled = attempts.count();
  rep.mean_transfer_attempts = attempts.mean();
  rep.max_transfer_attempts = attempts.count() ? attempts.max() : 0.0;
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    rep.messages[k] =
        metrics_after.messages(static_cast<sim::MessageKind>(k)) -
        msgs_before[k];
    rep.total_messages += rep.messages[k];
    rep.wire_bytes_by_kind[k] =
        metrics_after.wire_bytes(static_cast<sim::MessageKind>(k)) -
        bytes_before[k];
    rep.total_wire_bytes += rep.wire_bytes_by_kind[k];
  }

  rep.queries = ctx->query_ids.size();
  stats::OfflineSummary latency;
  stats::StreamingSummary hops;
  double recall_sum = 0.0;
  double precision_sum = 0.0;
  for (const std::uint64_t id : ctx->query_ids) {
    const auto d = qh_.collect(id);
    if (!d.completed) continue;
    ++rep.completed;
    if (d.identical()) ++rep.identical;
    const double r = d.recall();
    const double p = d.precision();
    recall_sum += r;
    precision_sum += p;
    rep.min_recall = std::min(rep.min_recall, r);
    rep.min_precision = std::min(rep.min_precision, p);
    if (r == 1.0 && p == 1.0) ++rep.exact;
    if (d.msg.epoch > 1) ++rep.reissued;
    rep.max_epochs = std::max(rep.max_epochs, d.msg.epoch);
    rep.branch_failovers += d.msg.branch_failovers;
    latency.add(d.msg.latency());
    hops.add(static_cast<double>(d.msg.route_hops));
  }
  if (rep.completed > 0) {
    rep.mean_recall = recall_sum / static_cast<double>(rep.completed);
    rep.mean_precision = precision_sum / static_cast<double>(rep.completed);
    rep.p50_completion = latency.quantile(0.5);
    rep.p99_completion = latency.quantile(0.99);
    rep.mean_route_hops = hops.mean();
  } else if (rep.queries > 0) {
    // Nothing completed: report zero, not the perfect-run defaults -- a
    // consumer must be able to tell "all exact" from "none finished".
    rep.mean_recall = rep.min_recall = 0.0;
    rep.mean_precision = rep.min_precision = 0.0;
  }
  if (rep.queries > 0) {
    // Query-kind wire attempts only (retransmits included): a mixed
    // timeline's maintenance / repair traffic must not be billed to the
    // queries.  Transport acks are not attributable per kind and are
    // excluded (compare against rep.wire for the ack-inclusive totals).
    const std::uint64_t query_wire =
        rep.messages_of(sim::MessageKind::kQuery) +
        rep.messages_of(sim::MessageKind::kQueryForward) +
        rep.messages_of(sim::MessageKind::kQueryResult) +
        rep.messages_of(sim::MessageKind::kQueryAbort);
    rep.wire_msgs_per_query = static_cast<double>(query_wire) /
                              static_cast<double>(rep.queries);
  }
  return rep;
}

Report run_scenario(const Scenario& s) { return Runner(s).run(); }

std::vector<SweepCell> sweep(const Scenario& base, const SweepGrid& grid) {
  const std::vector<protocol::LatencyModel> latencies =
      grid.latencies.empty()
          ? std::vector<protocol::LatencyModel>{base.latency}
          : grid.latencies;
  const std::vector<double> losses =
      grid.losses.empty() ? std::vector<double>{base.loss} : grid.losses;
  const std::vector<std::size_t> populations =
      grid.populations.empty() ? std::vector<std::size_t>{base.population}
                               : grid.populations;
  std::vector<SweepCell> cells;
  cells.reserve(latencies.size() * losses.size() * populations.size());
  for (const std::size_t population : populations) {
    for (const auto& latency : latencies) {
      for (const double loss : losses) {
        SweepCell cell;
        cell.scenario = base;
        cell.scenario.population = population;
        cell.scenario.latency = latency;
        cell.scenario.loss = loss;
        cell.report = run_scenario(cell.scenario);
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

}  // namespace voronet::scenario
