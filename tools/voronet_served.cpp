// voronet_served: host one overlay shard behind a socket.
//
// Grows an overlay (message-level joins to quiescence), mounts the
// serving front-end, and serves serve_wire clients until one sends
// kShutdown.  The companion client is tools/voronet_query_client.cpp;
// together they are the repo's multi-process quickstart (README.md).
//
//   voronet_served --listen uds:/tmp/voronet.sock --objects 150
//   voronet_served --listen tcp:127.0.0.1:7447 --backend sim
//
// Flags:
//   --listen SPEC       client-facing address (default: fresh UDS path)
//   --objects N         overlay population (default 150)
//   --seed S            run seed
//   --backend B         overlay-internal transport: thread|sim
//   --shards K          thread-backend actor threads (0 = derive, at
//                       most 64)
//   --queue-capacity N  admission bound of the serving front-end
//
// Exit status: 0 after a kShutdown, 2 on a usage error (unknown backend,
// negative count), 1 on any other failure.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "common/flags.hpp"
#include "net/serve_loop.hpp"

int main(int argc, char** argv) try {
  using namespace voronet;

  Flags flags(argc, argv);
  net::ServedConfig config;
  // Counts are read as signed and checked before any cast: an unsigned
  // cast would turn --shards -1 into 4,294,967,295 threads.
  bool usage_ok = true;
  const auto count = [&flags, &usage_ok](const char* name,
                                         std::int64_t def) {
    const std::int64_t v = flags.get_int(name, def);
    if (v >= 0) return static_cast<std::uint64_t>(v);
    std::cerr << "voronet_served: --" << name << " must not be negative (got "
              << v << ")\n";
    usage_ok = false;
    return std::uint64_t{0};
  };
  config.listen = flags.get_string("listen", "");
  config.objects = count("objects", 150);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0x5e12d));
  // Saturate rather than wrap: ThreadTransport rejects anything past its
  // shard cap.
  config.shards = static_cast<unsigned>(std::min<std::uint64_t>(
      count("shards", 0), std::numeric_limits<unsigned>::max()));
  config.serve.queue_capacity = count("queue-capacity", 256);
  if (!usage_ok) return 2;
  const std::string backend = flags.get_string("backend", "thread");
  if (backend == "thread") {
    config.backend = protocol::TransportKind::kThread;
  } else if (backend == "sim") {
    config.backend = protocol::TransportKind::kSim;
  } else {
    std::cerr << "voronet_served: unknown --backend " << backend
              << " (thread|sim)\n";
    return 2;
  }
  flags.reject_unconsumed();

  net::ServedShard shard(config);
  // The ready line is the client's cue in scripted runs; flush it before
  // entering the serve loop.
  std::cout << "voronet_served: " << config.objects << " objects ("
            << backend << " backend), listening on "
            << shard.address().spec() << std::endl;
  const std::uint64_t answered = shard.serve();
  std::cout << "voronet_served: shutdown after " << answered
            << " answered queries\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "voronet_served: " << e.what() << "\n";
  return 1;
}
