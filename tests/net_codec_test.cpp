// Property and rejection tests for the two src/net byte layouts: the
// transport frame codec (wire_codec) and the serving boundary's RPC
// codec (serve_wire), plus an end-to-end in-process exercise of the
// multi-process serving layer (ServedShard behind a Unix-domain socket,
// driven by ServeClient from the test thread).
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/serve_client.hpp"
#include "net/serve_loop.hpp"
#include "net/serve_wire.hpp"
#include "net/socket.hpp"
#include "net/wire_codec.hpp"
#include "net/wire_format.hpp"
#include "serve/open_loop.hpp"

namespace voronet::net {
namespace {

// The codec enumerates MessageKind exhaustively; growing the protocol
// vocabulary must not silently truncate on the wire.  (wire_format.hpp
// carries the same pin; this one keeps the TEST file honest about what
// it sweeps.)
static_assert(sim::kMessageKindCount == 13,
              "MessageKind changed: extend the codec sweep");

protocol::Message random_message(Rng& rng, sim::MessageKind kind,
                                 std::size_t entry_count) {
  protocol::Message m;
  m.type = kind;
  m.src = static_cast<protocol::NodeId>(rng.below(1u << 20));
  m.dst = static_cast<protocol::NodeId>(rng.below(1u << 20));
  m.version = rng();
  m.point = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
  m.hops = static_cast<std::uint32_t>(rng.below(1u << 16));
  m.query.kind = rng.below(2) == 0 ? protocol::QueryKind::kRange
                                   : protocol::QueryKind::kRadius;
  m.query.a = {rng.uniform(), rng.uniform()};
  m.query.b = {rng.uniform(), rng.uniform()};
  m.query.tol = rng.uniform(0.0, 0.5);
  m.query.issuer = static_cast<protocol::NodeId>(rng.below(1u << 20));
  m.query_final = rng.below(2) == 0;
  m.epoch = static_cast<std::uint32_t>(rng.below(16));
  m.transfer_id = rng();
  m.transfer_slot = static_cast<std::uint32_t>(rng());
  m.span = static_cast<obs::SpanId>(rng());
  for (std::size_t i = 0; i < entry_count; ++i) {
    m.entries.push_back(protocol::ViewEntry{
        static_cast<protocol::NodeId>(rng.below(1u << 20)),
        {rng.uniform(), rng.uniform()}});
  }
  return m;
}

void expect_equal_on_wire(const protocol::Message& a,
                          const protocol::Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.point.x, b.point.x);
  EXPECT_EQ(a.point.y, b.point.y);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.query.kind, b.query.kind);
  EXPECT_EQ(a.query.a.x, b.query.a.x);
  EXPECT_EQ(a.query.a.y, b.query.a.y);
  EXPECT_EQ(a.query.b.x, b.query.b.x);
  EXPECT_EQ(a.query.b.y, b.query.b.y);
  EXPECT_EQ(a.query.tol, b.query.tol);
  EXPECT_EQ(a.query.issuer, b.query.issuer);
  EXPECT_EQ(a.query_final, b.query_final);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.transfer_id, b.transfer_id);
  EXPECT_EQ(a.transfer_slot, b.transfer_slot);
  EXPECT_EQ(a.entries, b.entries);
}

TEST(WireCodec, RoundTripFuzzAllKindsAndSizes) {
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    const auto kind = static_cast<sim::MessageKind>(k);
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng rng(seed * 1000003 + k);
      const std::size_t entries = rng.below(65);
      const protocol::Message msg = random_message(rng, kind, entries);

      std::vector<std::uint8_t> buf;
      encode_frame(msg, buf);
      ASSERT_EQ(buf.size(), wire_frame_size(msg))
          << "layout arithmetic out of sync with the codec";

      protocol::Message out;
      std::size_t consumed = 0;
      ASSERT_EQ(decode_frame(buf.data(), buf.size(), consumed, out),
                DecodeStatus::kOk);
      EXPECT_EQ(consumed, buf.size());
      expect_equal_on_wire(msg, out);
    }
  }
}

TEST(WireCodec, EveryTruncationAsksForMoreBytes) {
  Rng rng(0xfeedULL);
  const protocol::Message msg =
      random_message(rng, sim::MessageKind::kQueryResult, 7);
  std::vector<std::uint8_t> buf;
  encode_frame(msg, buf);
  protocol::Message out;
  std::size_t consumed = 0;
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    ASSERT_EQ(decode_frame(buf.data(), cut, consumed, out),
              DecodeStatus::kNeedMore)
        << "prefix of " << cut << " bytes";
    ASSERT_EQ(consumed, 0u);
  }
}

TEST(WireCodec, BackToBackFramesDecodeInOrder) {
  Rng rng(0xabcdULL);
  std::vector<protocol::Message> msgs;
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 8; ++i) {
    msgs.push_back(random_message(
        rng, static_cast<sim::MessageKind>(rng.below(sim::kMessageKindCount)),
        rng.below(10)));
    encode_frame(msgs.back(), buf);
  }
  std::size_t off = 0;
  for (const protocol::Message& want : msgs) {
    protocol::Message out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(buf.data() + off, buf.size() - off, consumed, out),
              DecodeStatus::kOk);
    expect_equal_on_wire(want, out);
    off += consumed;
  }
  EXPECT_EQ(off, buf.size());
}

// Table-driven rejection: each row corrupts one field of a valid frame
// and names the status the decoder must answer with.  Offsets are the
// wire layout of wire_format.hpp.
TEST(WireCodec, CorruptFramesAreRejectedWithDiagnostics) {
  Rng rng(0x5eedULL);
  const protocol::Message msg =
      random_message(rng, sim::MessageKind::kVoronoiUpdate, 3);
  std::vector<std::uint8_t> valid;
  encode_frame(msg, valid);

  struct Row {
    const char* what;
    std::size_t offset;       ///< byte to stomp
    std::uint8_t value;       ///< stomped value
    DecodeStatus want;
  };
  const Row rows[] = {
      // body_len = 3 (< kFixedBodyBytes) -- u32 at offset 0.
      {"undersized length", 0, 3, DecodeStatus::kBadLength},
      // magic low byte: 0x4e ("N") -> 0x00.
      {"bad magic", 4, 0x00, DecodeStatus::kBadMagic},
      // version byte.
      {"unknown version", 6, 99, DecodeStatus::kBadVersion},
      // message type byte out of enum range.
      {"bad message kind", 7, 200, DecodeStatus::kBadKind},
      // query-kind byte (offset: prefix 4 + magic 2 + ver 1 + type 1 +
      // src 4 + dst 4 + version 8 + point 16 + hops 4 = 44).
      {"bad query kind", 44, 7, DecodeStatus::kBadKind},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    std::vector<std::uint8_t> buf = valid;
    if (row.offset == 0) {
      buf[0] = row.value;
      buf[1] = buf[2] = buf[3] = 0;
    } else {
      buf[row.offset] = row.value;
    }
    protocol::Message out;
    std::size_t consumed = 0;
    std::string diag;
    EXPECT_EQ(decode_frame(buf.data(), buf.size(), consumed, out, &diag),
              row.want);
    EXPECT_EQ(consumed, 0u);
    EXPECT_FALSE(diag.empty()) << "rejections must carry a diagnostic";
  }

  // Oversized declared length (> kMaxFrameBody).
  {
    std::vector<std::uint8_t> buf = valid;
    buf[0] = 0xff;
    buf[1] = 0xff;
    buf[2] = 0xff;
    buf[3] = 0x7f;
    protocol::Message out;
    std::size_t consumed = 0;
    std::string diag;
    EXPECT_EQ(decode_frame(buf.data(), buf.size(), consumed, out, &diag),
              DecodeStatus::kBadLength);
    EXPECT_FALSE(diag.empty());
  }

  // Entry count inconsistent with the declared body length.
  {
    std::vector<std::uint8_t> buf = valid;
    const std::size_t count_off = kFramePrefixBytes + kFixedBodyBytes - 4;
    buf[count_off] = 200;  // declared 3 entries' worth of body
    protocol::Message out;
    std::size_t consumed = 0;
    std::string diag;
    EXPECT_EQ(decode_frame(buf.data(), buf.size(), consumed, out, &diag),
              DecodeStatus::kBadLength);
    EXPECT_FALSE(diag.empty());
  }
}

// ---------------------------------------------------------------------------
// serve_wire
// ---------------------------------------------------------------------------

TEST(ServeWire, RoundTripEveryKind) {
  Rng rng(0x7e57ULL);
  for (std::size_t k = 0; k < kServeKindCount; ++k) {
    ServeFrame f;
    f.kind = static_cast<ServeKind>(k);
    f.id = rng();
    f.a = {rng.uniform(), rng.uniform()};
    f.b = {rng.uniform(), rng.uniform()};
    f.tol = rng.uniform(0.0, 0.3);
    f.rejected = rng.below(2) == 0;
    f.cache_hit = rng.below(2) == 0;
    f.server_latency = rng.uniform(0.0, 1.0);
    for (std::size_t i = 0; i < rng.below(20); ++i) {
      f.matches.push_back(static_cast<std::int32_t>(rng.below(1u << 16)));
    }
    f.objects = rng();
    f.topology_version = rng();
    f.submitted = rng();
    f.admitted = rng();
    f.rejected_total = rng();
    f.completed = rng();
    f.cache_hits = rng();
    f.batches = rng();
    f.batch_members = rng();
    f.graded = rng();
    f.recall = rng.uniform();
    f.precision = rng.uniform();
    f.drained = rng.below(2) == 0;
    f.wire_bytes = rng();

    std::vector<std::uint8_t> buf;
    encode_serve_frame(f, buf);
    ServeFrame out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_serve_frame(buf.data(), buf.size(), consumed, out),
              DecodeStatus::kOk)
        << serve_kind_name(f.kind);
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(out.kind, f.kind);
    EXPECT_EQ(out.id, f.id);
    switch (f.kind) {
      case ServeKind::kSubmitRange:
        EXPECT_EQ(out.b.x, f.b.x);
        EXPECT_EQ(out.b.y, f.b.y);
        [[fallthrough]];
      case ServeKind::kSubmitRadius:
        EXPECT_EQ(out.a.x, f.a.x);
        EXPECT_EQ(out.a.y, f.a.y);
        EXPECT_EQ(out.tol, f.tol);
        break;
      case ServeKind::kAnswer:
        EXPECT_EQ(out.rejected, f.rejected);
        EXPECT_EQ(out.cache_hit, f.cache_hit);
        EXPECT_EQ(out.topology_version, f.topology_version);
        EXPECT_EQ(out.server_latency, f.server_latency);
        EXPECT_EQ(out.matches, f.matches);
        break;
      case ServeKind::kHelloAck:
        EXPECT_EQ(out.objects, f.objects);
        EXPECT_EQ(out.topology_version, f.topology_version);
        break;
      case ServeKind::kReport:
        EXPECT_EQ(out.submitted, f.submitted);
        EXPECT_EQ(out.admitted, f.admitted);
        EXPECT_EQ(out.rejected_total, f.rejected_total);
        EXPECT_EQ(out.completed, f.completed);
        EXPECT_EQ(out.cache_hits, f.cache_hits);
        EXPECT_EQ(out.batches, f.batches);
        EXPECT_EQ(out.batch_members, f.batch_members);
        EXPECT_EQ(out.graded, f.graded);
        EXPECT_EQ(out.objects, f.objects);
        EXPECT_EQ(out.topology_version, f.topology_version);
        EXPECT_EQ(out.recall, f.recall);
        EXPECT_EQ(out.precision, f.precision);
        EXPECT_EQ(out.drained, f.drained);
        EXPECT_EQ(out.wire_bytes, f.wire_bytes);
        break;
      case ServeKind::kHello:
      case ServeKind::kGetReport:
      case ServeKind::kShutdown:
        break;
    }
  }
}

TEST(ServeWire, RejectsCorruptFrames) {
  ServeFrame f;
  f.kind = ServeKind::kSubmitRadius;
  f.id = 42;
  f.a = {0.5, 0.5};
  f.tol = 0.05;
  std::vector<std::uint8_t> valid;
  encode_serve_frame(f, valid);

  ServeFrame out;
  std::size_t consumed = 0;
  std::string diag;
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    ASSERT_EQ(decode_serve_frame(valid.data(), cut, consumed, out),
              DecodeStatus::kNeedMore);
  }

  std::vector<std::uint8_t> bad = valid;
  bad[4] = 0x00;  // magic
  EXPECT_EQ(decode_serve_frame(bad.data(), bad.size(), consumed, out, &diag),
            DecodeStatus::kBadMagic);

  bad = valid;
  bad[6] = 9;  // version
  EXPECT_EQ(decode_serve_frame(bad.data(), bad.size(), consumed, out, &diag),
            DecodeStatus::kBadVersion);

  bad = valid;
  bad[7] = 250;  // kind
  EXPECT_EQ(decode_serve_frame(bad.data(), bad.size(), consumed, out, &diag),
            DecodeStatus::kBadKind);

  bad = valid;
  bad[0] = static_cast<std::uint8_t>(bad[0] + 8);  // padded body length
  bad.resize(bad.size() + 8, 0);
  EXPECT_EQ(decode_serve_frame(bad.data(), bad.size(), consumed, out, &diag),
            DecodeStatus::kBadLength);
}

// ---------------------------------------------------------------------------
// ServedShard + ServeClient, in process over a Unix-domain socket
// ---------------------------------------------------------------------------

TEST(ServedShard, AnswersRemoteClientsExactly) {
  ServedConfig config;
  config.objects = 60;
  config.seed = 0x5eedULL;
  ServedShard shard(config);
  // The shard's serve loop IS its transport's driving thread; the test
  // thread plays the remote client process.
  std::thread server([&shard] { shard.serve(); });

  {
    ServeClient client(shard.address().spec());
    EXPECT_EQ(client.objects(), 60u);

    std::size_t answers = 0;
    client.set_answer_handler([&answers](const ServeFrame& a) {
      EXPECT_FALSE(a.rejected);
      ++answers;
    });
    client.submit_radius({0.5, 0.5}, 0.2);
    client.submit_range({0.1, 0.1}, {0.7, 0.7}, 0.05);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (client.outstanding() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      client.poll_answers(0.1);
    }
    EXPECT_EQ(client.outstanding(), 0u);
    EXPECT_EQ(answers, 2u);

    // Scenario-vocabulary stream against the socket.
    const std::size_t sent = drive_query_stream(
        client, scenario::Event::query_stream(0.0, 6, 0.05), 0x1234ULL);
    EXPECT_EQ(sent, 6u);
    while (client.outstanding() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      client.poll_answers(0.1);
    }
    EXPECT_EQ(client.outstanding(), 0u);

    const ServeFrame report = client.get_report();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.completed, 8u);
    EXPECT_EQ(report.graded, 8u);
    EXPECT_EQ(report.recall, 1.0);
    EXPECT_EQ(report.precision, 1.0);
    EXPECT_GT(report.wire_bytes, 0u);
    client.shutdown_server();
  }
  server.join();
}

// Polls `client` until the server closes its connection; false when the
// connection is still open after `timeout_s`.
bool server_hangs_up(ServeClient& client, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      client.poll_answers(0.05);
    } catch (const std::runtime_error&) {
      return true;
    }
  }
  return false;
}

TEST(ServedShard, MalformedSubmitDropsOnlyThatClient) {
  ServedConfig config;
  config.objects = 60;
  config.seed = 0x5eedULL;
  ServedShard shard(config);
  std::thread server([&shard] { shard.serve(); });

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    ServeClient bad(shard.address().spec());
    bad.submit_radius({0.5, 0.5}, -1.0);
    EXPECT_TRUE(server_hangs_up(bad, 10.0)) << "negative radius";
  }
  {
    ServeClient bad(shard.address().spec());
    bad.submit_range({0.1, 0.1}, {0.7, 0.7}, nan);
    EXPECT_TRUE(server_hangs_up(bad, 10.0)) << "NaN tolerance";
  }
  {
    ServeClient bad(shard.address().spec());
    bad.submit_range({0.1, 0.1}, {inf, 0.7}, 0.05);
    EXPECT_TRUE(server_hangs_up(bad, 10.0)) << "infinite coordinate";
  }

  // The shard still serves everyone else, exactly.
  {
    ServeClient client(shard.address().spec());
    client.submit_radius({0.5, 0.5}, 0.2);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (client.outstanding() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      client.poll_answers(0.1);
    }
    EXPECT_EQ(client.outstanding(), 0u);
    const ServeFrame report = client.get_report();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.submitted, 1u);
    EXPECT_EQ(report.graded, 1u);
    EXPECT_EQ(report.recall, 1.0);
    EXPECT_EQ(report.precision, 1.0);
    client.shutdown_server();
  }
  server.join();
}

TEST(ServedShard, ClientHangingUpWithAnswersPendingCostsOnlyItsConnection) {
  ServedConfig config;
  config.objects = 60;
  config.seed = 0x5eedULL;
  ServedShard shard(config);
  std::thread server([&shard] { shard.serve(); });

  for (int round = 0; round < 3; ++round) {
    // Hang up after the first answer, with the rest still owed: the
    // shard's next write to this client hits a closed socket.
    ServeClient quitter(shard.address().spec());
    for (int i = 0; i < 200; ++i) quitter.submit_radius({0.5, 0.5}, 0.3);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (quitter.outstanding() == 200 &&
           std::chrono::steady_clock::now() < deadline) {
      quitter.poll_answers(0.01);
    }
  }

  {
    ServeClient client(shard.address().spec());
    client.submit_radius({0.5, 0.5}, 0.2);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (client.outstanding() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      client.poll_answers(0.1);
    }
    EXPECT_EQ(client.outstanding(), 0u);
    const ServeFrame report = client.get_report();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.recall, 1.0);
    EXPECT_EQ(report.precision, 1.0);
    client.shutdown_server();
  }
  server.join();
}

TEST(ServeClient, WriteToAServerThatStopsReadingTimesOut) {
  // A listener that answers the hello and then never reads again.
  Address want;
  Address bound;
  std::string err;
  ASSERT_TRUE(parse_address("uds:" + unique_uds_path(), want, err)) << err;
  const int listen_fd = open_listener(want, bound, err);
  ASSERT_GE(listen_fd, 0) << err;
  std::promise<void> client_done;
  std::thread listener([listen_fd, done = client_done.get_future()] {
    pollfd pfd{listen_fd, POLLIN, 0};
    int fd = -1;
    while (fd < 0 && ::poll(&pfd, 1, 10'000) > 0) fd = accept_conn(listen_fd);
    if (fd < 0) return;
    std::vector<std::uint8_t> in;
    ServeFrame hello;
    std::size_t consumed = 0;
    pollfd cfd{fd, POLLIN, 0};
    while (decode_serve_frame(in.data(), in.size(), consumed, hello) ==
               DecodeStatus::kNeedMore &&
           ::poll(&cfd, 1, 10'000) > 0 && read_available(fd, in)) {
    }
    ServeFrame ack;
    ack.kind = ServeKind::kHelloAck;
    ack.id = hello.id;
    std::vector<std::uint8_t> out;
    encode_serve_frame(ack, out);
    EXPECT_EQ(::write(fd, out.data(), out.size()),
              static_cast<ssize_t>(out.size()));
    done.wait();  // hold the connection open, unread
    ::close(fd);
  });

  const auto t0 = std::chrono::steady_clock::now();
  bool connected = false;
  bool threw = false;
  try {  // nothing may escape before the listener is joined
    ServeClient client(bound.spec(), /*connect_timeout=*/1.0);
    connected = true;
    // Fill the socket buffer; the first write that cannot finish within
    // the 1 s deadline throws.
    for (int i = 0; i < 10'000'000; ++i) {
      client.submit_radius({0.5, 0.5}, 0.1);
    }
  } catch (const std::runtime_error&) {
    threw = true;
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  client_done.set_value();
  listener.join();
  ::close(listen_fd);
  ::unlink(bound.path.c_str());
  EXPECT_TRUE(connected);
  EXPECT_TRUE(threw);
  EXPECT_LT(elapsed, 5.0);
}

}  // namespace
}  // namespace voronet::net
