// bench_serve: open-loop serving latency through the transport seam.
//
// Grows one overlay per backend, mounts the serving front-end
// (src/serve: churn-invalidated cache + admission + one region flood per
// admitted query) and drives it with an open-loop Poisson query stream at
// a sweep of arrival rates.  The headline cells run on ThreadTransport -- real
// threads, real monotonic-clock latencies, so p50/p99 are wall-clock
// serving numbers -- with one SimTransport cell as the deterministic
// cross-check (same serving code, virtual clock) and one churn cell
// that crashes nodes mid-stream to exercise cache invalidation.
//
// SLO gate (exit status, consumed by CI's smoke run):
//   * every cell quiesces (no budget_exhausted / patience overrun);
//   * the lowest-rate thread cell completes every offered query;
//   * graded queries -- those completed at the final topology version --
//     have recall == precision == 1.0 in EVERY cell, churn included;
//   * p99 is finite and positive wherever anything completed.
//
// Flags beyond the common set (see bench_common.hpp):
//   --objects N   overlay size per cell
//   --shards K    ThreadTransport actor threads (0 = derive)
//
// The "socket" cell is a real two-process run: the shard is forked into
// a child hosting tools-style voronet_served serving (ServedShard over a
// Unix-domain socket) and this process drives it with
// run_open_loop_remote -- same arrival schedule, wall-clock latencies
// measured across the process boundary.
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/serve_client.hpp"
#include "net/serve_loop.hpp"
#include "net/socket.hpp"
#include "protocol/query_harness.hpp"
#include "serve/open_loop.hpp"
#include "serve/query_server.hpp"

namespace {

using namespace voronet;
using protocol::HarnessConfig;
using protocol::TransportKind;

struct Cell {
  std::string name;
  TransportKind backend = TransportKind::kThread;
  double rate = 0.0;
  bool churn = false;
  bool remote = false;  ///< served from a forked process over a socket
  serve::LoadReport report;
  /// Overlay-internal bytes on the wire (codec frame sizes; identical
  /// billing on every backend).  Per-kind only for in-process cells.
  std::uint64_t wire_bytes = 0;
  std::vector<std::pair<std::string, std::uint64_t>> wire_by_kind;
};

HarnessConfig make_config(TransportKind backend, unsigned shards,
                          std::uint64_t seed) {
  HarnessConfig config;
  config.transport = backend;
  config.transport_shards = shards;
  config.seed = seed;
  // Short wires: on ThreadTransport these are real wall-clock seconds,
  // so the latency model and the failure detector are scaled down to
  // keep a full sweep inside a CI minute while preserving the shape
  // (non-zero spread, derived RTO, real retransmissions under churn).
  config.network.latency = protocol::LatencyModel::uniform(0.0005, 0.002);
  config.network.seed = seed ^ 0x77aabULL;
  config.failure_detect_delay = 0.05;
  return config;
}

Cell run_cell(std::string name, TransportKind backend, unsigned shards,
              std::size_t objects, double rate, double duration, bool churn,
              std::uint64_t seed) {
  Cell cell;
  cell.name = std::move(name);
  cell.backend = backend;
  cell.rate = rate;
  cell.churn = churn;

  protocol::QueryHarness qh(make_config(backend, shards, seed));
  qh.populate(objects, seed ^ 0x9e37ULL, 0.002);
  protocol::ProtocolHarness& harness = qh.harness();

  serve::QueryServer server(harness, serve::ServeConfig{});
  serve::LoadConfig load;
  load.rate = rate;
  load.duration = duration;
  load.seed = seed ^ 0xf00dULL;

  if (churn) {
    // Crash a handful of nodes mid-stream: every crash bumps the
    // topology version, invalidating all cached answers; queries
    // completed before the last crash become ungradable and the report
    // grades only the post-churn tail.
    Rng crng(seed ^ 0xc4a5ULL);
    const std::size_t crashes = std::max<std::size_t>(2, objects / 50);
    for (std::size_t i = 0; i < crashes; ++i) {
      const double at = duration * (0.2 + 0.5 * static_cast<double>(i) /
                                              static_cast<double>(crashes));
      harness.network().schedule(at, [&harness, &crng] {
        if (harness.node_count() > 8) {
          harness.crash(harness.random_node(crng));
        }
      });
    }
  }

  cell.report = serve::run_open_loop(harness, server, load);
  const sim::Metrics& metrics = harness.network().metrics();
  cell.wire_bytes = metrics.total_wire_bytes();
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    const auto kind = static_cast<sim::MessageKind>(k);
    if (metrics.wire_bytes(kind) > 0) {
      cell.wire_by_kind.emplace_back(std::string(sim::message_kind_name(kind)),
                                     metrics.wire_bytes(kind));
    }
  }
  return cell;
}

// One real client/server process pair over a Unix-domain socket: fork a
// ServedShard (safe here: every transport thread of earlier cells has
// been joined when its harness was destroyed), drive it remotely, reap
// it.  The shard's own overlay wire runs on ThreadTransport; the socket
// under measurement is the serving boundary.
Cell run_socket_cell(std::string name, std::size_t objects, double rate,
                     double duration, std::uint64_t seed) {
  Cell cell;
  cell.name = std::move(name);
  cell.backend = TransportKind::kSocket;
  cell.rate = rate;
  cell.remote = true;

  const std::string path = net::unique_uds_path();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("bench_serve: fork failed");
  }
  if (pid == 0) {
    // Child: serve until the parent's shutdown frame.  _exit, not exit:
    // the parent owns the streams and the atexit machinery.
    int status = 0;
    try {
      net::ServedConfig config;
      config.listen = "uds:" + path;
      config.objects = objects;
      config.seed = seed;
      net::ServedShard shard(config);
      shard.serve();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_serve (shard child): %s\n", e.what());
      status = 1;
    }
    ::_exit(status);
  }

  serve::LoadConfig load;
  load.rate = rate;
  load.duration = duration;
  load.seed = seed ^ 0xf00dULL;
  try {
    net::ServeClient client("uds:" + path);
    net::ServeFrame server_report;
    cell.report = net::run_open_loop_remote(client, load, &server_report);
    cell.wire_bytes = server_report.wire_bytes;
    client.shutdown_server();
  } catch (...) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw;
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    cell.report.drained = false;  // shard died: fail the SLO gate loudly
  }
  return cell;
}

Json cell_json(const Cell& cell) {
  const serve::LoadReport& r = cell.report;
  Json j = Json::object();
  j.set("name", Json::string(cell.name));
  const char* backend = "sim";
  if (cell.backend == TransportKind::kThread) backend = "thread";
  if (cell.backend == TransportKind::kSocket) backend = "socket";
  j.set("backend", Json::string(backend));
  j.set("remote", Json::boolean(cell.remote));
  j.set("rate_qps", Json::number(cell.rate));
  j.set("churn", Json::boolean(cell.churn));
  j.set("offered", Json::integer(r.offered));
  j.set("admitted", Json::integer(r.admitted));
  j.set("rejected", Json::integer(r.rejected));
  j.set("completed", Json::integer(r.completed));
  j.set("completion_rate", Json::number(r.completion_rate));
  j.set("cache_hits", Json::integer(r.cache_hits));
  j.set("batches", Json::integer(r.batches));
  j.set("p50_s", Json::number(r.p50));
  j.set("p99_s", Json::number(r.p99));
  j.set("max_s", Json::number(r.max_latency));
  j.set("mean_s", Json::number(r.mean_latency));
  j.set("graded", Json::integer(r.graded));
  j.set("recall", Json::number(r.recall));
  j.set("precision", Json::number(r.precision));
  j.set("drained", Json::boolean(r.drained));
  j.set("wire_bytes", Json::integer(cell.wire_bytes));
  if (!cell.wire_by_kind.empty()) {
    Json by_kind = Json::object();
    for (const auto& [kind, bytes] : cell.wire_by_kind) {
      by_kind.set(kind, Json::integer(bytes));
    }
    j.set("wire_bytes_by_kind", std::move(by_kind));
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) try {
  bench::Args args(argc, argv, /*default_seed=*/0x5e4eULL);
  const std::size_t objects = static_cast<std::size_t>(args.flags().get_int(
      "objects", args.smoke ? 150 : 400));
  const unsigned shards =
      static_cast<unsigned>(args.flags().get_int("shards", 0));
  args.finish();

  const double duration = args.smoke ? 0.4 : 1.0;
  std::vector<double> rates =
      args.smoke ? std::vector<double>{100.0, 400.0}
                 : std::vector<double>{100.0, 400.0, 1500.0};

  std::vector<Cell> cells;
  for (const double rate : rates) {
    cells.push_back(run_cell("thread@" + std::to_string(static_cast<int>(rate)),
                             TransportKind::kThread, shards, objects, rate,
                             duration, /*churn=*/false, args.seed));
  }
  cells.push_back(run_cell("thread+churn", TransportKind::kThread, shards,
                           objects, rates[rates.size() - 2], duration,
                           /*churn=*/true, args.seed + 1));
  cells.push_back(run_cell("sim@" + std::to_string(static_cast<int>(rates[0])),
                           TransportKind::kSim, shards, objects, rates[0],
                           duration, /*churn=*/false, args.seed + 2));
  cells.push_back(
      run_socket_cell("socket@" + std::to_string(static_cast<int>(rates[0])),
                      objects, rates[0], duration, args.seed + 3));

  stats::Table table({"cell", "rate", "offered", "completed", "rejected",
                      "cache", "batches", "p50 ms", "p99 ms",
                      "graded", "recall", "precision"});
  for (const Cell& c : cells) {
    const serve::LoadReport& r = c.report;
    table.add_row({c.name, stats::Table::cell(c.rate, 0),
                   stats::Table::cell(static_cast<std::size_t>(r.offered)),
                   stats::Table::cell(static_cast<std::size_t>(r.completed)),
                   stats::Table::cell(static_cast<std::size_t>(r.rejected)),
                   stats::Table::cell(static_cast<std::size_t>(r.cache_hits)),
                   stats::Table::cell(static_cast<std::size_t>(r.batches)),
                   stats::Table::cell(r.p50 * 1e3, 3),
                   stats::Table::cell(r.p99 * 1e3, 3),
                   stats::Table::cell(static_cast<std::size_t>(r.graded)),
                   stats::Table::cell(r.recall, 4),
                   stats::Table::cell(r.precision, 4)});
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << "bench_serve: open-loop serving, " << objects
              << " objects per cell\n";
    table.print(std::cout);
  }

  // --- SLO gate ------------------------------------------------------------
  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cerr << "SLO FAIL: " << what << "\n";
    ok = false;
  };
  for (const Cell& c : cells) {
    const serve::LoadReport& r = c.report;
    if (!r.drained) fail(c.name + ": transport did not quiesce");
    if (r.graded > 0 && (r.recall != 1.0 || r.precision != 1.0)) {
      fail(c.name + ": graded exactness violated");
    }
    if (r.completed > 0 && !(r.p99 > 0.0 && r.p99 < 1e9)) {
      fail(c.name + ": p99 not finite-positive");
    }
    if (!c.churn && r.graded == 0 && r.offered > 0) {
      fail(c.name + ": churn-free cell graded nothing");
    }
  }
  // The lowest-rate thread cell is under-loaded by construction: shedding
  // there would mean the admission bound leaks capacity.
  if (cells[0].report.completion_rate != 1.0) {
    fail(cells[0].name + ": under-loaded cell shed or lost queries");
  }

  if (!args.json_path.empty()) {
    Json doc = Json::object();
    doc.set("bench", Json::string("serve"));
    doc.set("objects", Json::integer(objects));
    doc.set("smoke", Json::boolean(args.smoke));
    doc.set("seed", Json::integer(args.seed));
    doc.set("slo_pass", Json::boolean(ok));
    Json arr = Json::array();
    for (const Cell& c : cells) arr.push(cell_json(c));
    doc.set("cells", std::move(arr));
    write_json_file(args.json_path, doc);
    std::cout << "wrote " << args.json_path << "\n";
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "bench_serve: " << e.what() << "\n";
  return 1;
}
