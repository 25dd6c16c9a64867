#include "voronet/queries.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/expect.hpp"
#include "geometry/predicates.hpp"
#include "geometry/voronoi.hpp"

namespace voronet {

namespace {

/// The shared cell-to-cell flood with the header's counting model applied
/// in one place for both query styles.
///
///  * region_test(o)  -- does o's Voronoi region meet the query region?
///    (drives the flood: exactly the cells passing it are served, plus
///    the root unconditionally -- the routed entry point always passes
///    when routing is exact, since the queried point lies in its cell);
///  * site_test(o)    -- does o's site satisfy the query predicate?
///    (fills `matches`).
///
/// Message accounting follows the cell-to-cell protocol the message-level
/// engine (src/protocol) executes: every served cell transmits the query
/// to each qualifying neighbour except its flood parent -- including
/// neighbours another branch already served, whose rejection is a result
/// message like any echo.  forward_messages is therefore
/// sum-of-qualifying-degrees minus the (V - 1) parent links, an
/// order-independent quantity.
RegionQueryResult region_flood(
    const Overlay& overlay, ObjectId from, Vec2 target,
    const std::function<bool(ObjectId)>& region_test,
    const std::function<bool(ObjectId)>& site_test) {
  RegionQueryResult res;

  // Reach the region with the ordinary greedy protocol.
  const RouteResult entry = overlay.probe(from, target);
  res.route_hops = entry.hops;

  // Memoised region test: a cell is probed once per neighbouring served
  // cell, but its geometry only needs clipping once.
  std::unordered_map<ObjectId, bool> qualifies;
  const auto test = [&](ObjectId o) {
    const auto it = qualifies.find(o);
    if (it != qualifies.end()) return it->second;
    const bool q = region_test(o);
    qualifies.emplace(o, q);
    return q;
  };

  std::size_t qualifying_transmissions = 0;
  std::unordered_set<ObjectId> visited{entry.owner};
  std::vector<ObjectId> stack{entry.owner};
  while (!stack.empty()) {
    const ObjectId cur = stack.back();
    stack.pop_back();
    res.owners.push_back(cur);
    if (site_test(cur)) res.matches.push_back(cur);
    for (const ObjectId nb : overlay.view(cur).vn) {
      if (!test(nb)) continue;
      ++qualifying_transmissions;  // cur would transmit to nb (or to its
                                   // parent, subtracted once below)
      if (visited.insert(nb).second) stack.push_back(nb);
    }
  }

  // Each served cell other than the root received the query across
  // exactly one of the qualifying adjacencies counted above (its flood
  // parent, which always qualifies -- it was served); the rest are real
  // transmissions.  Every transmission draws exactly one reply, and the
  // root sends the final aggregate to the issuer unless it is the issuer.
  VORONET_DCHECK(qualifying_transmissions + 1 >= res.owners.size());
  res.forward_messages = qualifying_transmissions - (res.owners.size() - 1);
  res.result_messages =
      res.forward_messages + (entry.owner != from ? 1 : 0);

  std::sort(res.matches.begin(), res.matches.end());
  return res;
}

}  // namespace

RegionQueryResult range_query(const Overlay& overlay, ObjectId from, Vec2 a,
                              Vec2 b, double tolerance) {
  VORONET_EXPECT(tolerance >= 0.0, "negative range tolerance");
  // Flood the "stadium" (segment inflated by the tolerance): forward
  // across exactly those Voronoi neighbours whose region comes within the
  // tolerance of the segment.  The stadium is convex, so the cells meeting
  // it form a connected patch of the Voronoi adjacency and the flood
  // reaches them all.  With tolerance 0 this degenerates to the paper's
  // sketch -- forwarding along the cells the segment crosses, decided
  // exactly by dist2_region_to_segment's verdict (a grazing segment
  // returns 0, not a small positive approximation).
  const double tol2 = tolerance * tolerance;
  return region_flood(
      overlay, from, a,
      [&](ObjectId o) {
        return geo::region_within(overlay.tessellation(), o, a, b, tol2);
      },
      [&](ObjectId o) {
        return site_within_tolerance(a, b, overlay.position(o), tolerance);
      });
}

RegionQueryResult radius_query(const Overlay& overlay, ObjectId from,
                               Vec2 center, double radius) {
  VORONET_EXPECT(radius >= 0.0, "negative query radius");
  // Flood the Voronoi adjacency, but only across objects whose region
  // intersects the disk: this visits exactly the cells overlapping the
  // query (the set of such cells is connected since cells are convex and
  // the disk is convex).
  const double r2 = radius * radius;
  return region_flood(
      overlay, from, center,
      [&](ObjectId o) {
        return geo::region_within(overlay.tessellation(), o, center, center,
                                  r2);
      },
      [&](ObjectId o) {
        return site_within_tolerance(center, center, overlay.position(o),
                                     radius);
      });
}

QueryGeometry draw_range_geometry(Rng& rng, std::size_t population) {
  const double n = static_cast<double>(std::max<std::size_t>(population, 2));
  QueryGeometry g;
  const double len = rng.uniform(0.02, 0.3);
  const double angle = rng.uniform(0.0, 6.283185307179586);
  g.a = {rng.uniform(), rng.uniform()};
  g.b = {g.a.x + len * std::cos(angle), g.a.y + len * std::sin(angle)};
  g.tol = rng.uniform(0.0, 1.0) / std::sqrt(n);
  return g;
}

QueryGeometry draw_radius_geometry(Rng& rng, std::size_t population) {
  const double n = static_cast<double>(std::max<std::size_t>(population, 2));
  QueryGeometry g;
  const double want = rng.uniform(1.0, 48.0);  // expected matches
  g.a = {rng.uniform(), rng.uniform()};
  g.b = g.a;
  g.tol = std::sqrt(want / (3.141592653589793 * n));
  return g;
}

}  // namespace voronet
