#include "bench_common.hpp"

#include <atomic>
#include <charconv>
#include <fstream>
#include <thread>

#include "common/parallel.hpp"

namespace voronet::bench {

Json host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      const auto start = line.find_first_not_of(" \t", colon + 1);
      if (colon != std::string::npos && start != std::string::npos) {
        cpu = line.substr(start);
      }
      break;
    }
  }
  return Json::object()
      .set("cpu", Json::string(cpu))
      .set("nproc", Json::integer(std::thread::hardware_concurrency()))
      .set("compiler", Json::string(VORONET_BUILD_COMPILER))
      .set("flags", Json::string(VORONET_BUILD_FLAGS))
      .set("build_type", Json::string(VORONET_BUILD_TYPE))
      .set("git_sha", Json::string(VORONET_GIT_SHA));
}

void write_json_file(const std::string& path, Json doc) {
  if (path.empty()) return;
  doc.set("host", host_json());
  voronet::write_json_file(path, doc);
}

Scale resolve_scale(const Args& args) {
  Scale s{};
  s.full = args.full;
  s.csv = args.csv;
  s.json_path = args.json_path;
  s.seed = args.seed;
  const Flags& flags = args.flags();
  if (s.full) {
    s.objects = static_cast<std::size_t>(flags.get_int("objects", 300'000));
    s.checkpoint =
        static_cast<std::size_t>(flags.get_int("checkpoint", 10'000));
    s.pairs = static_cast<std::size_t>(flags.get_int("pairs", 100'000));
  } else if (args.smoke) {
    s.objects = static_cast<std::size_t>(flags.get_int("objects", 8'000));
    s.checkpoint =
        static_cast<std::size_t>(flags.get_int("checkpoint", 4'000));
    s.pairs = static_cast<std::size_t>(flags.get_int("pairs", 2'000));
  } else {
    s.objects = static_cast<std::size_t>(flags.get_int("objects", 60'000));
    s.checkpoint =
        static_cast<std::size_t>(flags.get_int("checkpoint", 10'000));
    s.pairs = static_cast<std::size_t>(flags.get_int("pairs", 10'000));
  }
  return s;
}

ProbeStats probe_stats(const Overlay& overlay, std::size_t pairs, Rng& rng) {
  // Pre-draw the couples sequentially so the measurement is deterministic
  // regardless of the worker count.
  std::vector<ProbeQuery> couples;
  couples.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    const ObjectId from = overlay.random_object(rng);
    ObjectId to = overlay.random_object(rng);
    while (to == from && overlay.size() > 1) to = overlay.random_object(rng);
    couples.push_back({from, overlay.position(to)});
  }
  std::vector<RouteResult> results(couples.size());

  // Each worker runs a software-pipelined probe batch over its chunk; the
  // two levels of parallelism (lanes per core, chunks across cores)
  // compose.
  std::atomic<std::uint64_t> total_hops{0};
  std::atomic<std::uint64_t> dmin_stops{0};
  parallel_for(0, couples.size(),
               [&](std::size_t lo, std::size_t hi, std::size_t) {
                 overlay.probe_batch(
                     std::span(couples).subspan(lo, hi - lo),
                     std::span(results).subspan(lo, hi - lo));
                 std::uint64_t local = 0;
                 std::uint64_t local_stops = 0;
                 for (std::size_t i = lo; i < hi; ++i) {
                   local += results[i].hops;
                   if (results[i].stopped_by_dmin) ++local_stops;
                 }
                 total_hops.fetch_add(local, std::memory_order_relaxed);
                 dmin_stops.fetch_add(local_stops,
                                      std::memory_order_relaxed);
               });
  ProbeStats stats;
  stats.mean_hops = static_cast<double>(total_hops.load()) /
                    static_cast<double>(couples.size());
  stats.dmin_stop_fraction = static_cast<double>(dmin_stops.load()) /
                             static_cast<double>(couples.size());
  return stats;
}

double mean_route_hops(const Overlay& overlay, std::size_t pairs, Rng& rng) {
  return probe_stats(overlay, pairs, rng).mean_hops;
}

Json table_json(const stats::Table& table) {
  const auto cell_value = [](const std::string& cell) {
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(cell.data(), cell.data() + cell.size(), v);
    if (ec == std::errc{} && ptr == cell.data() + cell.size()) {
      return Json::number(v);
    }
    return Json::string(cell);
  };
  Json header = Json::array();
  for (const auto& h : table.header()) header.push(Json::string(h));
  Json rows = Json::array();
  for (const auto& row : table.row_data()) {
    Json jrow = Json::array();
    for (const auto& cell : row) jrow.push(cell_value(cell));
    rows.push(std::move(jrow));
  }
  return Json::object().set("header", std::move(header))
      .set("rows", std::move(rows));
}

std::vector<GrowthPoint> route_growth_series(
    const workload::DistributionConfig& dist, const Scale& scale,
    std::size_t long_links) {
  OverlayConfig cfg;
  cfg.n_max = scale.objects;
  cfg.long_links = long_links;
  cfg.seed = scale.seed;
  Overlay overlay(cfg);
  Rng rng(scale.seed ^ 0x5eedf00dULL);

  std::vector<GrowthPoint> series;
  grow_overlay(overlay, dist, scale.objects, scale.checkpoint, rng,
               [&](std::size_t n) {
                 series.push_back({n, mean_route_hops(overlay, scale.pairs,
                                                      rng)});
               });
  return series;
}

}  // namespace voronet::bench
