// Voronoi geometry derived from the Delaunay triangulation.
//
// VoroNet needs two geometric services from the Voronoi diagram:
//   * DistanceToRegion (paper, section 4.2.3): the point of an object's
//     Voronoi region closest to a query point -- the quantity that drives
//     the routing stop condition and the fictive-object placement of the
//     join algorithm;
//   * cell polygons for inspection, example rendering and the region
//     descriptions that objects exchange during maintenance.
//
// Cells of hull objects are unbounded; they are represented here clipped
// against a caller-supplied box (defaulting to a box that is provably
// large enough for the query at hand).
#pragma once

#include <optional>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/vec2.hpp"

namespace voronet::geo {

/// Axis-aligned clipping box.
struct Box {
  Vec2 lo{0.0, 0.0};
  Vec2 hi{1.0, 1.0};

  [[nodiscard]] bool contains(Vec2 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  /// Grow the box so that it contains p with the given margin.
  void expand_to(Vec2 p, double margin);
};

/// A (clipped) Voronoi cell: convex polygon in CCW order.
struct VoronoiCell {
  DelaunayTriangulation::VertexId site = DelaunayTriangulation::kNoVertex;
  std::vector<Vec2> polygon;
  bool clipped = false;  ///< true if the unbounded cell met the clip box
};

/// Compute the Voronoi cell of `site`, clipped to `box`.
/// Requires a triangulated structure (>= 3 non-collinear points).
VoronoiCell voronoi_cell(const DelaunayTriangulation& dt,
                         DelaunayTriangulation::VertexId site, const Box& box);

/// All cells of the diagram clipped to `box` (for rendering / inspection).
std::vector<VoronoiCell> voronoi_diagram(const DelaunayTriangulation& dt,
                                         const Box& box);

/// DistanceToRegion of the paper: the point of site's Voronoi region
/// closest to p.  Returns p itself when p lies in the region.  The clip
/// box is chosen internally, large enough that clipping cannot affect the
/// answer (the closest cell point lies within d(p, site) of p).
Vec2 closest_point_in_region(const DelaunayTriangulation& dt,
                             DelaunayTriangulation::VertexId site, Vec2 p);

/// Convenience: squared distance from p to site's Voronoi region.
double dist2_to_region(const DelaunayTriangulation& dt,
                       DelaunayTriangulation::VertexId site, Vec2 p);

/// Squared distance from segment [a, b] to site's Voronoi region.
///
/// Exact where it matters: whether the segment meets the region is
/// decided by clipping the segment's parameter interval against the
/// region's bisector half-planes (no box, so unbounded hull cells are
/// handled exactly), which returns exactly 0 even when the segment only
/// grazes the cell -- e.g. passes through a Voronoi vertex.  The previous
/// implementation ternary-searched dist2_to_region along the segment and
/// could report a small positive distance for a grazing segment, making
/// tolerance-0 range queries skip cells the segment actually crosses
/// (regression-tested in tests/queries_test.cpp).  When the segment
/// misses the region, the distance is the minimum over the cell-boundary
/// edges of the exact segment-segment distance.
double dist2_region_to_segment(const DelaunayTriangulation& dt,
                               DelaunayTriangulation::VertexId site, Vec2 a,
                               Vec2 b);

/// dist2_region_to_segment(dt, site, a, b) <= tol2 (a point query when
/// a == b), with the same verdict, but most probes are settled without
/// clipping the cell: the site lies in its region, so d(site, query) <=
/// tol bounds the distance from above, and p's distance beyond any one
/// bisector half-plane bounds it from below.  A bound only decides when
/// it clears tol by a margin far above the rounding of either side; the
/// rest fall through to the exact computation.
bool region_within(const DelaunayTriangulation& dt,
                   DelaunayTriangulation::VertexId site, Vec2 a, Vec2 b,
                   double tol2);

}  // namespace voronet::geo
