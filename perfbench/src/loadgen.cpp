#include "loadgen.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::vector<double> window_p99s(const std::vector<double>& in_order,
                                std::size_t window) {
  std::vector<double> p99s;
  for (std::size_t start = 0; start < in_order.size();) {
    std::size_t end = std::min(in_order.size(), start + window);
    if (in_order.size() - end < window) end = in_order.size();
    std::vector<double> w(in_order.begin() + static_cast<std::ptrdiff_t>(start),
                          in_order.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(w.begin(), w.end());
    p99s.push_back(percentile(w, 0.99));
    start = end;
  }
  return p99s;
}

void PhaseResult::merge(const PhaseResult& later) {
  const auto total = static_cast<double>(offered + later.offered);
  if (total > 0) {
    offered_rate = (offered_rate * static_cast<double>(offered) +
                    later.offered_rate * static_cast<double>(later.offered)) /
                   total;
  }
  offered += later.offered;
  answered += later.answered;
  rejected += later.rejected;
  unanswered += later.unanswered;
  graded += later.graded;
  inexact += later.inexact;
  runs += later.runs;
  service_s += later.service_s;
  chunk_rates.insert(chunk_rates.end(), later.chunk_rates.begin(),
                     later.chunk_rates.end());
  drained = drained && later.drained;
  drain_ms = std::max(drain_ms, later.drain_ms);
  for (auto [mine, theirs] : {std::pair{&latency_ms, &later.latency_ms},
                              std::pair{&server_ms, &later.server_ms}}) {
    mine->insert(mine->end(), theirs->begin(), theirs->end());
    std::sort(mine->begin(), mine->end());
  }
  window_p99s.insert(window_p99s.end(), later.window_p99s.begin(),
                     later.window_p99s.end());
}

PhaseResult run_phase(Target& target, const std::vector<Query>& queries,
                      double rate, voronet::Rng& rng, double drain_bound_s,
                      SpanLog& log, std::string_view span_name,
                      const std::vector<ModelledWrite>& writes) {
  Span span(log, span_name);
  PhaseResult r;
  r.rate = rate;
  r.offered = queries.size();
  target.set_parent_span(span.id());
  target.begin_phase(queries.size());

  std::vector<double> due(queries.size());
  double at = 0.0;
  for (double& d : due) {
    at += rng.exponential(rate);
    d = at;
  }
  if (due.size() >= 2) {
    r.offered_rate = static_cast<double>(due.size() - 1) / (due.back() - due.front());
  }
  double free_at = 0.0;  // modelled instant the engine is next idle
  std::size_t w = 0;
  std::vector<double> done(queries.size(), 0.0);
  std::size_t chunk_queries = 0;
  double chunk_s = 0.0;
  for (std::size_t i = 0; i < queries.size();) {
    while (w < writes.size() && writes[w].at <= std::max(due[i], free_at)) {
      const double c0 = work_now();
      writes[w].apply();
      free_at = std::max(writes[w].at, free_at) + (work_now() - c0);
      ++w;
    }
    // The engine takes up every query that has arrived by now.
    const double start = std::max(due[i], free_at);
    std::size_t end = i;
    const double c0 = work_now();
    for (; end < queries.size() && due[end] <= start; ++end) {
      target.submit(end, queries[end]);
    }
    target.run();
    const double service = work_now() - c0;
    target.grade();
    free_at = start + service;
    chunk_queries += end - i;
    for (; i < end; ++i) done[i] = free_at;
    r.service_s += service;
    ++r.runs;
    chunk_s += service;
    if (chunk_queries >= kRateChunk) {
      r.chunk_rates.push_back(static_cast<double>(chunk_queries) / chunk_s);
      chunk_queries = 0;
      chunk_s = 0.0;
    }
  }
  if (r.chunk_rates.empty() && chunk_queries > 0) {  // a phase shorter than a chunk
    r.chunk_rates.push_back(static_cast<double>(chunk_queries) / chunk_s);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Outcome& o = target.outcome(i);
    if (o.rejected) {
      ++r.rejected;
    } else if (o.answered) {
      ++r.answered;
      r.latency_ms.push_back((done[i] - due[i]) * 1e3);
      if (o.server_s >= 0.0) r.server_ms.push_back(o.server_s * 1e3);
    } else {
      ++r.unanswered;
    }
  }
  const double last = due.empty() ? 0.0 : due.back();
  r.drain_ms = (free_at - last) * 1e3;
  r.drained = r.unanswered == 0 && free_at - last <= drain_bound_s;
  r.graded = target.graded();
  r.inexact = target.inexact();
  r.window_p99s = window_p99s(r.latency_ms, kP99Window);
  for (auto* v : {&r.latency_ms, &r.server_ms}) std::sort(v->begin(), v->end());
  span.count("offered", r.offered);
  span.count("answered", r.answered);
  span.count("rejected", r.rejected);
  span.count("runs", r.runs);
  return r;
}

KneeResult search_knee(double start_rate, const Probe& start, double step,
                       int refine, int max_probes, double floor_rate,
                       const std::function<Probe(double)>& probe) {
  KneeResult k;
  double lo = 0.0;  // highest known pass (nominal)
  double hi = 0.0;  // lowest known fail (nominal)
  double reading = 0.0;
  const auto record = [&](double rate, const Probe& p) {
    if (p.pass && rate > lo) {
      lo = rate;
      reading = p.offered > 0.0 ? p.offered : rate;
    } else if (!p.pass) {
      hi = hi == 0.0 ? rate : std::min(hi, rate);
    }
  };
  record(start_rate, start);
  int probes = 0;
  const auto run = [&](double rate) {
    ++probes;
    const Probe p = probe(rate);
    k.trail.emplace_back(rate, p.pass);
    record(rate, p);
    return p;
  };

  bool aborted = false;
  // Ladder phase: move until the verdict flips.
  while (!aborted && probes < max_probes) {
    double next = 0.0;
    if (hi == 0.0) {
      next = lo * step;  // everything so far passed: climb
    } else if (lo == 0.0) {
      next = hi / step;  // everything so far failed: descend
      if (next < floor_rate) break;
    } else {
      break;  // bracketed
    }
    aborted = run(next).abort;
  }
  // Refinement: bisect the bracket [lo, hi] in log space.
  for (int i = 0; i < refine && !aborted && probes < max_probes; ++i) {
    if (lo == 0.0 || hi == 0.0) break;
    aborted = run(std::sqrt(lo * hi)).abort;
  }
  k.found = lo > 0.0;
  k.knee = k.found ? reading : floor_rate;
  return k;
}

}  // namespace perfbench
