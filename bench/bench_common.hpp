// Shared machinery for the figure/table benchmark binaries.
//
// Every bench accepts the common flag set, parsed once by parse_args():
//   --full            run at the paper's exact scale (300k objects, 100k
//                     route samples); otherwise a laptop-scale default
//   --smoke           shrink every phase for the CI smoke run (~seconds)
//   --csv             print machine-readable CSV instead of tables
//   --json PATH       additionally write the results as a JSON document
//   --seed S          change the experiment seed
// plus bench-specific flags documented in each binary (queried through
// Args::flags() before Args::finish() rejects the typos).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/json.hpp"
#include "stats/table.hpp"
#include "voronet/overlay.hpp"
#include "workload/distributions.hpp"

namespace voronet::bench {

// The ordered JSON document builder every bench writes --json files with.
// One definition for the whole repo (scenario reports use it too); see
// src/common/json.hpp.
using voronet::Json;

/// Where a result was measured, so numbers are compared only against
/// numbers from the same host: {"cpu", "nproc", "compiler", "flags",
/// "build_type", "git_sha"}.  The build fields are fixed when CMake
/// configures the tree; git_sha is the checkout's HEAD at that time and
/// empty outside a checkout.
Json host_json();

/// Write a bench's --json document (an object) with host_json() stamped
/// in as its "host" member; a no-op when path is empty.
void write_json_file(const std::string& path, Json doc);

/// The common flag set, parsed once.  Bench-specific flags are queried
/// through flags(); call finish() after the last query so unknown flags
/// still abort startup.
class Args {
  // Declared first: members initialize in declaration order, and every
  // public field below reads from the parsed flags.
  Flags flags_;

 public:
  Args(int argc, const char* const* argv, std::uint64_t default_seed = 42)
      : flags_(argc, argv),
        smoke(flags_.get_bool("smoke", false)),
        full(bench_full_scale(flags_)),
        csv(flags_.get_bool("csv", false)),
        seed(static_cast<std::uint64_t>(
            flags_.get_int("seed", static_cast<std::int64_t>(default_seed)))),
        json_path(flags_.get_string("json", "")) {}

  const bool smoke;
  const bool full;
  const bool csv;
  const std::uint64_t seed;
  const std::string json_path;

  [[nodiscard]] const Flags& flags() const { return flags_; }
  /// Throws std::invalid_argument if any parsed flag was never queried.
  void finish() const { flags_.reject_unconsumed(); }
};

/// Common scale parameters resolved from the shared flags (paper scale
/// under --full, CI scale under --smoke).
struct Scale {
  std::size_t objects;      ///< final overlay size
  std::size_t checkpoint;   ///< measure every `checkpoint` insertions
  std::size_t pairs;        ///< sampled routes per checkpoint
  std::uint64_t seed;
  bool csv;
  bool full;
  std::string json_path;    ///< empty unless --json PATH was given
};

/// Render a stats::Table as {"header": [...], "rows": [[...], ...]}; cells
/// that parse as numbers are emitted as numbers, the rest as strings.
Json table_json(const stats::Table& table);

/// Paper scale: 300,000 objects, checkpoints every 10,000 adds, 100,000
/// random couples per checkpoint (section 5).  Default scale keeps the
/// same shape at ~1/5 size so the whole harness runs in minutes; --smoke
/// shrinks further for CI.
Scale resolve_scale(const Args& args);

/// Grow an overlay to `target` objects under the given distribution,
/// invoking `checkpoint(n)` every `every` insertions (and at the end).
/// Gateways are chosen uniformly at random, as in the paper's setup.
template <typename Checkpoint>
void grow_overlay(Overlay& overlay, const workload::DistributionConfig& dist,
                  std::size_t target, std::size_t every, Rng& rng,
                  Checkpoint&& checkpoint) {
  workload::PointGenerator gen(dist);
  while (overlay.size() < target) {
    overlay.insert(gen.next(rng));
    if (overlay.size() % every == 0 || overlay.size() == target) {
      checkpoint(overlay.size());
    }
  }
}

/// Route measurement over random (source, target-object) couples.
struct ProbeStats {
  double mean_hops = 0.0;
  /// Fraction of routes terminated by the dmin condition before reaching
  /// the target's region (they finish with local fictive-object
  /// resolution, whose cost greedy hop counts do not show).
  double dmin_stop_fraction = 0.0;
};
ProbeStats probe_stats(const Overlay& overlay, std::size_t pairs, Rng& rng);

/// Mean greedy route length over `pairs` random (source, target-object)
/// couples, measured with read-only probes in parallel.
double mean_route_hops(const Overlay& overlay, std::size_t pairs,
                       Rng& rng);

/// One growth series: mean hops at every checkpoint.
struct GrowthPoint {
  std::size_t objects;
  double mean_hops;
};
std::vector<GrowthPoint> route_growth_series(
    const workload::DistributionConfig& dist, const Scale& scale,
    std::size_t long_links);

}  // namespace voronet::bench
