// voronet_query_client: drive a voronet_served shard over its socket.
//
// Connects (retrying while the server is still populating), runs the
// open-loop Poisson workload of serve::run_open_loop against the remote
// shard -- identical arrival schedule, wall-clock latencies measured at
// this process -- and prints the merged report.  Exit status is the
// acceptance gate CI's multi-process smoke keys on:
//
//   0  drained, recall == precision == 1 over graded tickets, and
//      every offered query completed;
//   1  any of those failed (or the connection died).
//
// Flags:
//   --connect SPEC   server address (required), e.g. uds:/tmp/v.sock
//   --rate QPS       mean arrival rate        (default 200)
//   --duration S     arrival window           (default 0.5)
//   --seed S         workload seed
//   --allow-shed     tolerate admission rejections (high-rate runs)
//   --json PATH      write the report as JSON
//   --no-shutdown    leave the server running afterwards
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.hpp"
#include "common/json.hpp"
#include "net/serve_client.hpp"
#include "serve/open_loop.hpp"

int main(int argc, char** argv) try {
  using namespace voronet;

  Flags flags(argc, argv);
  const std::string connect = flags.get_string("connect", "");
  serve::LoadConfig load;
  load.rate = flags.get_double("rate", 200.0);
  load.duration = flags.get_double("duration", 0.5);
  load.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0x10ad));
  const bool allow_shed = flags.get_bool("allow-shed", false);
  const std::string json_path = flags.get_string("json", "");
  const bool shutdown = !flags.get_bool("no-shutdown", false);
  flags.reject_unconsumed();
  if (connect.empty()) {
    std::cerr << "voronet_query_client: --connect is required\n";
    return 2;
  }

  net::ServeClient client(connect);
  std::cout << "voronet_query_client: connected to " << connect << " ("
            << client.objects() << " objects)\n";
  net::ServeFrame server_report;
  const serve::LoadReport r =
      net::run_open_loop_remote(client, load, &server_report);
  if (shutdown) client.shutdown_server();

  std::printf(
      "offered %llu  completed %llu  rejected %llu  cache %llu  "
      "batches %llu\n",
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.batches));
  std::printf("latency p50 %.3f ms  p99 %.3f ms  max %.3f ms\n", r.p50 * 1e3,
              r.p99 * 1e3, r.max_latency * 1e3);
  std::printf(
      "graded %llu  recall %.4f  precision %.4f  drained %s  "
      "overlay wire bytes %llu\n",
      static_cast<unsigned long long>(r.graded), r.recall, r.precision,
      r.drained ? "yes" : "no",
      static_cast<unsigned long long>(server_report.wire_bytes));

  if (!json_path.empty()) {
    Json doc = Json::object();
    doc.set("connect", Json::string(connect));
    doc.set("objects", Json::integer(client.objects()));
    doc.set("rate_qps", Json::number(load.rate));
    doc.set("offered", Json::integer(r.offered));
    doc.set("completed", Json::integer(r.completed));
    doc.set("rejected", Json::integer(r.rejected));
    doc.set("completion_rate", Json::number(r.completion_rate));
    doc.set("cache_hits", Json::integer(r.cache_hits));
    doc.set("batches", Json::integer(r.batches));
    doc.set("p50_s", Json::number(r.p50));
    doc.set("p99_s", Json::number(r.p99));
    doc.set("max_s", Json::number(r.max_latency));
    doc.set("graded", Json::integer(r.graded));
    doc.set("recall", Json::number(r.recall));
    doc.set("precision", Json::number(r.precision));
    doc.set("drained", Json::boolean(r.drained));
    doc.set("wire_bytes", Json::integer(server_report.wire_bytes));
    write_json_file(json_path, doc);
    std::cout << "wrote " << json_path << "\n";
  }

  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cerr << "GATE FAIL: " << what << "\n";
    ok = false;
  };
  if (!r.drained) fail("transport did not quiesce");
  if (r.graded > 0 && (r.recall != 1.0 || r.precision != 1.0)) {
    fail("graded exactness violated");
  }
  if (!allow_shed && r.completion_rate != 1.0) {
    fail("offered queries shed or lost");
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "voronet_query_client: " << e.what() << "\n";
  return 1;
}
