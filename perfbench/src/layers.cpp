#include "layers.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.hpp"
#include "net/wire_codec.hpp"
#include "sim/event_queue.hpp"
#include "voronet/overlay.hpp"

namespace perfbench {

namespace vn = voronet;

namespace {

/// Median of `reps` timings of `fn`, in seconds.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = work_now();
    fn();
    t.push_back(work_now() - t0);
  }
  return median(std::move(t));
}

}  // namespace

CodecCost time_codec(const Snapshot& traffic, SpanLog& log) {
  Span span(log, "net.codec");
  // Frames per kind in proportion to the run's message counts, each with
  // the kind's mean entry count (frame bytes = fixed part + entries).
  constexpr std::size_t kMix = 2048;
  double total = 0.0;
  for (std::size_t k = 0; k < kKinds; ++k) total += traffic.msgs[k];
  vn::Rng rng(0xc0dec);
  std::vector<vn::protocol::Message> frames;
  for (std::size_t k = 0; k < kKinds && total > 0.0; ++k) {
    if (traffic.msgs[k] <= 0.0) continue;
    const auto count = static_cast<std::size_t>(
        std::ceil(static_cast<double>(kMix) * traffic.msgs[k] / total));
    const double mean_bytes = traffic.bytes[k] / traffic.msgs[k];
    const double fixed = static_cast<double>(vn::net::kFramePrefixBytes +
                                             vn::net::kFixedBodyBytes);
    const auto entries = static_cast<std::size_t>(std::max(
        0.0, std::round((mean_bytes - fixed) /
                        static_cast<double>(vn::net::kEntryBytes))));
    for (std::size_t i = 0; i < count; ++i) {
      vn::protocol::Message m;
      m.type = static_cast<vn::sim::MessageKind>(k);
      m.src = static_cast<vn::protocol::NodeId>(rng.index(50000));
      m.dst = static_cast<vn::protocol::NodeId>(rng.index(50000));
      m.version = rng();
      m.point = {rng.uniform(), rng.uniform()};
      m.query.a = {rng.uniform(), rng.uniform()};
      m.query.tol = rng.uniform(0.0, 0.05);
      m.transfer_id = i + 1;
      m.transfer_slot = static_cast<std::uint32_t>(i);
      for (std::size_t e = 0; e < entries; ++e) {
        m.entries.push_back({static_cast<vn::protocol::NodeId>(rng.index(50000)),
                             {rng.uniform(), rng.uniform()}});
      }
      frames.push_back(std::move(m));
    }
  }
  CodecCost c;
  if (frames.empty()) return c;
  std::vector<std::uint8_t> buf;
  const int loops = std::max(1, static_cast<int>(400000 / frames.size()));
  const double enc = median_time(5, [&] {
    for (int l = 0; l < loops; ++l) {
      buf.clear();
      for (const auto& m : frames) vn::net::encode_frame(m, buf);
    }
  });
  vn::protocol::Message out;
  std::size_t decoded = 0;
  const double dec = median_time(5, [&] {
    for (int l = 0; l < loops; ++l) {
      std::size_t off = 0;
      while (off < buf.size()) {
        std::size_t used = 0;
        if (vn::net::decode_frame(buf.data() + off, buf.size() - off, used,
                                  out) != vn::net::DecodeStatus::kOk) {
          throw std::runtime_error("codec probe: frame failed to decode");
        }
        off += used;
        ++decoded;
      }
    }
  });
  const double n = static_cast<double>(loops) *
                   static_cast<double>(frames.size());
  c.encode_ns = enc / n * 1e9;
  c.decode_ns = dec / n * 1e9;
  span.count("frames", frames.size());
  span.count("decoded", decoded);
  return c;
}

double time_event_queue(std::size_t depth, std::uint64_t seed,
                        SpanLog& log) {
  Span span(log, "sim.event_queue");
  depth = std::max<std::size_t>(depth, 1);
  vn::Rng rng(seed);
  vn::sim::EventQueue q;
  std::size_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(rng.uniform(0.0, 1.0), [&fired] { ++fired; });
  }
  constexpr std::size_t kPairs = 400000;
  const double secs = median_time(3, [&] {
    for (std::size_t i = 0; i < kPairs; ++i) {
      q.schedule(rng.uniform(0.0, 1.0), [&fired] { ++fired; });
      q.step();
    }
  });
  span.count("depth", depth);
  span.count("fired", fired);
  return secs / static_cast<double>(kPairs) * 1e9;
}

ReplayCost replay_overlay(const vn::OverlayConfig& config,
                          const std::vector<MembershipOp>& ops,
                          SpanLog& log) {
  Span span(log, "voronet.replay");
  struct Hash {
    std::size_t operator()(const vn::Vec2& p) const {
      std::uint64_t x = 0, y = 0;
      std::memcpy(&x, &p.x, sizeof x);
      std::memcpy(&y, &p.y, sizeof y);
      return static_cast<std::size_t>(x * 0x9e3779b97f4a7c15ULL ^ y);
    }
  };
  struct Eq {
    bool operator()(const vn::Vec2& a, const vn::Vec2& b) const {
      return a.x == b.x && a.y == b.y;
    }
  };
  vn::Overlay overlay(config);
  std::unordered_map<vn::Vec2, vn::ObjectId, Hash, Eq> ids;
  double insert_s = 0.0, remove_s = 0.0;
  std::size_t inserts = 0, removes = 0;
  for (const MembershipOp& op : ops) {
    if (op.kind == MembershipOp::kJoin) {
      const double t0 = work_now();
      const vn::ObjectId id = overlay.insert(op.pos);
      insert_s += work_now() - t0;
      ++inserts;
      ids[op.pos] = id;
      continue;
    }
    const auto it = ids.find(op.pos);
    if (it == ids.end()) continue;  // departed before it joined here
    const double t0 = work_now();
    if (op.kind == MembershipOp::kLeave) {
      overlay.remove(it->second);
    } else {
      overlay.crash(it->second);
      overlay.repair_dangling();
    }
    remove_s += work_now() - t0;
    ++removes;
    ids.erase(it);
  }
  span.count("inserts", inserts);
  span.count("removes", removes);
  ReplayCost c;
  c.insert_us = inserts ? insert_s / static_cast<double>(inserts) * 1e6 : 0.0;
  c.remove_us = removes ? remove_s / static_cast<double>(removes) * 1e6 : 0.0;
  return c;
}

}  // namespace perfbench
