// Tests for Voronoi cell extraction and DistanceToRegion.
#include "geometry/voronoi.hpp"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "geometry/delaunay.hpp"

namespace voronet::geo {
namespace {

using VertexId = DelaunayTriangulation::VertexId;

/// Point-in-convex-polygon (boundary counts as inside).
bool in_polygon(const std::vector<Vec2>& poly, Vec2 p) {
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 a = poly[i];
    const Vec2 b = poly[(i + 1) % n];
    if (cross(b - a, p - a) < -1e-12) return false;
  }
  return true;
}

TEST(VoronoiCell, ContainsItsSite) {
  DelaunayTriangulation dt;
  Rng rng(1);
  std::vector<VertexId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(dt.insert({rng.uniform(), rng.uniform()}).vertex);
  }
  const Box unit{{0, 0}, {1, 1}};
  for (const VertexId v : ids) {
    const VoronoiCell cell = voronoi_cell(dt, v, unit);
    ASSERT_GE(cell.polygon.size(), 3u);
    EXPECT_TRUE(in_polygon(cell.polygon, dt.position(v)))
        << "site " << v << " outside its own cell";
  }
}

TEST(VoronoiCell, MembershipMatchesNearest) {
  DelaunayTriangulation dt;
  Rng rng(2);
  for (int i = 0; i < 60; ++i) dt.insert({rng.uniform(), rng.uniform()});
  const Box unit{{0, 0}, {1, 1}};
  // Random probes: the probe lies in the (clipped) cell of its nearest
  // site (up to boundary tolerance).
  for (int q = 0; q < 300; ++q) {
    const Vec2 p{rng.uniform(), rng.uniform()};
    const VertexId owner = dt.nearest(p);
    const VoronoiCell cell = voronoi_cell(dt, owner, unit);
    EXPECT_TRUE(in_polygon(cell.polygon, p));
  }
}

TEST(VoronoiCell, CellsPartitionTheBox) {
  DelaunayTriangulation dt;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) dt.insert({rng.uniform(), rng.uniform()});
  const Box unit{{0, 0}, {1, 1}};
  const auto cells = voronoi_diagram(dt, unit);
  EXPECT_EQ(cells.size(), dt.size());
  // Total area of clipped cells equals the box area.
  double total = 0.0;
  for (const auto& cell : cells) {
    double area = 0.0;
    for (std::size_t i = 0; i < cell.polygon.size(); ++i) {
      const Vec2 a = cell.polygon[i];
      const Vec2 b = cell.polygon[(i + 1) % cell.polygon.size()];
      area += cross(a, b);
    }
    total += area / 2.0;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(VoronoiCell, HullCellsAreClipped) {
  DelaunayTriangulation dt;
  dt.insert({0.4, 0.4});
  dt.insert({0.6, 0.4});
  dt.insert({0.5, 0.6});
  const Box unit{{0, 0}, {1, 1}};
  int clipped = 0;
  dt.for_each_vertex([&](VertexId v) {
    if (voronoi_cell(dt, v, unit).clipped) ++clipped;
  });
  EXPECT_EQ(clipped, 3);  // all three cells are unbounded
}

TEST(DistanceToRegion, InsideReturnsThePointItself) {
  DelaunayTriangulation dt;
  Rng rng(4);
  for (int i = 0; i < 80; ++i) dt.insert({rng.uniform(), rng.uniform()});
  for (int q = 0; q < 200; ++q) {
    const Vec2 p{rng.uniform(), rng.uniform()};
    const VertexId owner = dt.nearest(p);
    EXPECT_EQ(closest_point_in_region(dt, owner, p), p);
    EXPECT_EQ(dist2_to_region(dt, owner, p), 0.0);
  }
}

TEST(DistanceToRegion, OutsideProjectsOntoTheBoundary) {
  DelaunayTriangulation dt;
  Rng rng(5);
  std::vector<VertexId> ids;
  for (int i = 0; i < 80; ++i) {
    ids.push_back(dt.insert({rng.uniform(), rng.uniform()}).vertex);
  }
  for (int q = 0; q < 200; ++q) {
    const Vec2 p{rng.uniform(), rng.uniform()};
    const VertexId owner = dt.nearest(p);
    const VertexId other = ids[rng.index(ids.size())];
    if (other == owner) continue;
    const Vec2 z = closest_point_in_region(dt, other, p);
    // z must belong to other's region: its nearest site is `other` (ties
    // on the boundary allowed -- distance equality within tolerance).
    const VertexId zn = dt.nearest(z);
    const double dz_other = dist(z, dt.position(other));
    const double dz_zn = dist(z, dt.position(zn));
    EXPECT_LE(dz_other, dz_zn + 1e-9);
    // And no region point may be closer to p than z is: check against the
    // site itself and a few sampled boundary points.
    EXPECT_LE(dist2(p, z), dist2(p, dt.position(other)) + 1e-12);
  }
}

TEST(DistanceToRegion, RoutingInequalityHolds) {
  // The quantity drives the paper's stop condition: for any p and site o,
  // d(DistanceToRegion(o,p), p) <= d(o, p).
  DelaunayTriangulation dt;
  Rng rng(6);
  std::vector<VertexId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(dt.insert({rng.uniform(), rng.uniform()}).vertex);
  }
  for (int q = 0; q < 300; ++q) {
    const Vec2 p{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)};
    const VertexId o = ids[rng.index(ids.size())];
    const Vec2 z = closest_point_in_region(dt, o, p);
    EXPECT_LE(dist2(p, z), dist2(p, dt.position(o)) * (1.0 + 1e-9));
  }
}

TEST(DistanceToRegion, PendingModeWorks) {
  DelaunayTriangulation dt;
  const auto a = dt.insert({0.25, 0.5}).vertex;
  const auto b = dt.insert({0.75, 0.5}).vertex;
  // Two-point "diagram": the bisector splits the plane at x = 0.5.
  const Vec2 z = closest_point_in_region(dt, a, {0.9, 0.5});
  EXPECT_NEAR(z.x, 0.5, 1e-9);
  EXPECT_EQ(closest_point_in_region(dt, b, {0.9, 0.5}), (Vec2{0.9, 0.5}));
}

/// region_within against the exact distance it short-cuts, over point
/// and segment queries whose tolerance sits exactly on, just below and
/// around the exact distance, on a unit-square and a far-offset diagram.
void expect_region_within_matches_exact(Vec2 origin, double span,
                                        std::uint64_t seed) {
  DelaunayTriangulation dt;
  Rng rng(seed);
  std::vector<VertexId> ids;
  for (int i = 0; i < 150; ++i) {
    ids.push_back(dt.insert({origin.x + span * rng.uniform(),
                             origin.y + span * rng.uniform()})
                      .vertex);
  }
  const auto probe = [&] {
    return Vec2{origin.x + span * rng.uniform(-0.2, 1.2),
                origin.y + span * rng.uniform(-0.2, 1.2)};
  };
  std::size_t checked = 0;
  for (int q = 0; q < 3000; ++q) {
    const VertexId o = ids[rng.index(ids.size())];
    const Vec2 a = probe();
    const Vec2 b = q % 2 == 0 ? a : a + 0.05 * (probe() - a);
    const double exact = dist2_region_to_segment(dt, o, a, b);
    const double scale = span * span;
    for (const double tol2 :
         {exact, std::nextafter(exact, 0.0), exact * (1.0 + 1e-12),
          exact * (1.0 - 1e-12), exact * 4.0, exact * 0.25,
          scale * rng.uniform(0.0, 0.01), 0.0}) {
      ASSERT_EQ(region_within(dt, o, a, b, tol2), exact <= tol2)
          << "site " << o << " a (" << a.x << ", " << a.y << ") b (" << b.x
          << ", " << b.y << ") tol2 " << tol2 << " exact " << exact;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3000u * 8u);
}

TEST(RegionWithin, MatchesTheExactDistanceVerdict) {
  expect_region_within_matches_exact({0.0, 0.0}, 1.0, 7);
  expect_region_within_matches_exact({-3.0e3, 5.0e3}, 1.0, 8);
  expect_region_within_matches_exact({0.0, 0.0}, 1.0e4, 9);
}

TEST(RegionWithin, PendingModeWorks) {
  DelaunayTriangulation dt;
  const auto a = dt.insert({0.25, 0.5}).vertex;
  dt.insert({0.75, 0.5});
  // a's region ends at x = 0.5.
  EXPECT_TRUE(region_within(dt, a, {0.6, 0.5}, {0.6, 0.5}, 0.0101));
  EXPECT_FALSE(region_within(dt, a, {0.6, 0.5}, {0.6, 0.5}, 0.0099));
  EXPECT_TRUE(region_within(dt, a, {0.9, 0.1}, {0.4, 0.9}, 0.0));
}

TEST(BoxOps, ExpandTo) {
  Box box{{0, 0}, {1, 1}};
  box.expand_to({2.0, -1.0}, 0.5);
  EXPECT_EQ(box.hi.x, 2.5);
  EXPECT_EQ(box.lo.y, -1.5);
  EXPECT_TRUE(box.contains({2.0, -1.0}));
}

}  // namespace
}  // namespace voronet::geo
