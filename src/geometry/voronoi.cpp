#include "geometry/voronoi.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "geometry/predicates.hpp"

namespace voronet::geo {

namespace {

/// Clip a convex CCW polygon by the halfplane f(q) <= 0 where
/// f(q) = dot(q - origin, normal) (Sutherland-Hodgman, one plane).
/// Sets `touched` when at least one vertex was cut away.
void clip_halfplane(std::vector<Vec2>& poly, Vec2 origin, Vec2 normal,
                    bool& touched) {
  if (poly.empty()) return;
  thread_local std::vector<Vec2> out;
  out.clear();
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 a = poly[i];
    const Vec2 b = poly[(i + 1) % n];
    const double fa = dot(a - origin, normal);
    const double fb = dot(b - origin, normal);
    if (fa <= 0.0) {
      out.push_back(a);
      if (fb > 0.0) {
        const double t = fa / (fa - fb);
        out.push_back(a + t * (b - a));
        touched = true;
      }
    } else {
      touched = true;
      if (fb <= 0.0) {
        const double t = fa / (fa - fb);
        out.push_back(a + t * (b - a));
      }
    }
  }
  poly = out;
}

using Neighbours = std::vector<DelaunayTriangulation::VertexId>;

/// The Delaunay neighbours of `site`, in a per-thread buffer that stays
/// valid until the next call.
const Neighbours& neighbours_of(const DelaunayTriangulation& dt,
                                DelaunayTriangulation::VertexId site) {
  thread_local Neighbours nbrs;
  nbrs.clear();
  dt.append_neighbors(site, nbrs);
  return nbrs;
}

/// Clip the box polygon by the perpendicular bisectors towards every
/// Delaunay neighbour `nbrs` of `site` (the bisectors of non-neighbours
/// are redundant by Voronoi/Delaunay duality).  Writes the cell into
/// `poly`.
void clip_cell_into(const DelaunayTriangulation& dt,
                    DelaunayTriangulation::VertexId site,
                    const Neighbours& nbrs, const Box& box,
                    std::vector<Vec2>& poly) {
  poly.clear();
  poly.push_back({box.lo.x, box.lo.y});
  poly.push_back({box.hi.x, box.lo.y});
  poly.push_back({box.hi.x, box.hi.y});
  poly.push_back({box.lo.x, box.hi.y});

  const Vec2 s = dt.position(site);
  for (const auto n : nbrs) {
    const Vec2 q = dt.position(n);
    const Vec2 mid = 0.5 * (s + q);
    // Halfplane closer to s than to n: dot(x - mid, q - s) <= 0.
    bool touched = false;
    clip_halfplane(poly, mid, q - s, touched);
    (void)touched;
  }
}

VoronoiCell cell_by_clipping(const DelaunayTriangulation& dt,
                             DelaunayTriangulation::VertexId site,
                             const Box& box) {
  VoronoiCell cell;
  cell.site = site;
  clip_cell_into(dt, site, neighbours_of(dt, site), box, cell.polygon);
  // Determine whether the box actually bounds the cell: if any polygon
  // vertex lies on the box boundary the cell was (potentially) unbounded.
  for (const Vec2 v : cell.polygon) {
    if (v.x <= box.lo.x || v.x >= box.hi.x || v.y <= box.lo.y ||
        v.y >= box.hi.y) {
      cell.clipped = true;
      break;
    }
  }
  return cell;
}

Vec2 closest_point_in_region(const DelaunayTriangulation& dt,
                             DelaunayTriangulation::VertexId site,
                             const Neighbours& nbrs, Vec2 p) {
  const Vec2 s = dt.position(site);

  // Fast path: p already inside the region (strictly closer to the site
  // than to every Delaunay neighbour).
  bool inside = true;
  for (const auto n : nbrs) {
    const Vec2 q = dt.position(n);
    if (dot(p - 0.5 * (s + q), q - s) > 0.0) {
      inside = false;
      break;
    }
  }
  if (inside) return p;

  // The closest region point z satisfies d(z, p) <= d(s, p), so a clip box
  // containing the ball B(p, r) with r slightly above d(s, p) cannot cut
  // it off, and no artificial box edge can be closer to p than z.
  const double r = dist(s, p) * 1.0001 + 1e-12;
  const Box box{{p.x - r, p.y - r}, {p.x + r, p.y + r}};
  thread_local std::vector<Vec2> poly;
  clip_cell_into(dt, site, nbrs, box, poly);
  VORONET_EXPECT(!poly.empty(), "clipped Voronoi cell vanished");

  Vec2 best = s;
  double best_d = dist2(s, p);
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 a = poly[i];
    const Vec2 b = poly[(i + 1) % n];
    const Vec2 cand = closest_point_on_segment(a, b, p);
    const double d = dist2(cand, p);
    if (d < best_d) {
      best = cand;
      best_d = d;
    }
  }
  return best;
}

double dist2_region_to_segment(const DelaunayTriangulation& dt,
                               DelaunayTriangulation::VertexId site,
                               const Neighbours& nbrs, Vec2 a, Vec2 b) {
  if (a == b) return dist2(a, closest_point_in_region(dt, site, nbrs, a));
  const Vec2 s = dt.position(site);

  // Does the segment meet the region?  The region is the intersection of
  // the bisector half-planes towards the Delaunay neighbours, each linear
  // along the segment, so clipping the parameter interval [0, 1] against
  // them decides membership without any clip box (unbounded hull cells
  // included) and returns 0 exactly when some p(t) satisfies every
  // constraint -- a segment merely grazing the cell boundary lands on
  // tlo == thi instead of the false positives of a sampled minimisation.
  double tlo = 0.0;
  double thi = 1.0;
  for (const auto n : nbrs) {
    const Vec2 q = dt.position(n);
    const Vec2 mid = 0.5 * (s + q);
    const Vec2 normal = q - s;
    const double fa = dot(a - mid, normal);
    const double fb = dot(b - mid, normal);
    if (fa <= 0.0 && fb <= 0.0) continue;  // whole segment on s's side
    if (fa > 0.0 && fb > 0.0) {
      tlo = 1.0;
      thi = 0.0;
      break;  // whole segment beyond this bisector
    }
    const double t = fa / (fa - fb);  // f changes sign at t
    if (fa > 0.0) {
      tlo = std::max(tlo, t);
    } else {
      thi = std::min(thi, t);
    }
    if (tlo > thi) break;
  }
  if (tlo <= thi) return 0.0;

  // Disjoint: the distance between two convex sets is attained on the
  // region's boundary.  Clip the cell to a box that provably contains the
  // closest region point z: since s lies in the region,
  // d(z, segment) <= d(s, segment), so z lies within that margin of the
  // segment's bounding box -- and every artificial box edge is at least
  // the margin away from the segment, so it cannot undercut a real edge.
  const double margin = std::sqrt(dist2_to_segment(a, b, s)) * 1.0001 + 1e-12;
  Box box{{std::min(a.x, b.x) - margin, std::min(a.y, b.y) - margin},
          {std::max(a.x, b.x) + margin, std::max(a.y, b.y) + margin}};
  thread_local std::vector<Vec2> poly;
  clip_cell_into(dt, site, nbrs, box, poly);
  VORONET_EXPECT(!poly.empty(), "clipped Voronoi cell vanished");

  double best = dist2_to_segment(a, b, s);  // upper bound (s is in the region)
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    best = std::min(best,
                    dist2_segment_segment(a, b, poly[i], poly[(i + 1) % n]));
  }
  return best;
}

}  // namespace

void Box::expand_to(Vec2 p, double margin) {
  lo.x = std::min(lo.x, p.x - margin);
  lo.y = std::min(lo.y, p.y - margin);
  hi.x = std::max(hi.x, p.x + margin);
  hi.y = std::max(hi.y, p.y + margin);
}

VoronoiCell voronoi_cell(const DelaunayTriangulation& dt,
                         DelaunayTriangulation::VertexId site,
                         const Box& box) {
  VORONET_EXPECT(dt.is_live(site), "voronoi_cell of a dead vertex");
  return cell_by_clipping(dt, site, box);
}

std::vector<VoronoiCell> voronoi_diagram(const DelaunayTriangulation& dt,
                                         const Box& box) {
  std::vector<VoronoiCell> cells;
  cells.reserve(dt.size());
  dt.for_each_vertex([&](DelaunayTriangulation::VertexId v) {
    cells.push_back(cell_by_clipping(dt, v, box));
  });
  return cells;
}

Vec2 closest_point_in_region(const DelaunayTriangulation& dt,
                             DelaunayTriangulation::VertexId site, Vec2 p) {
  VORONET_EXPECT(dt.is_live(site), "closest_point_in_region: dead site");
  return closest_point_in_region(dt, site, neighbours_of(dt, site), p);
}

double dist2_to_region(const DelaunayTriangulation& dt,
                       DelaunayTriangulation::VertexId site, Vec2 p) {
  return dist2(p, closest_point_in_region(dt, site, p));
}

double dist2_region_to_segment(const DelaunayTriangulation& dt,
                               DelaunayTriangulation::VertexId site, Vec2 a,
                               Vec2 b) {
  VORONET_EXPECT(dt.is_live(site), "dist2_region_to_segment: dead site");
  return dist2_region_to_segment(dt, site, neighbours_of(dt, site), a, b);
}

bool region_within(const DelaunayTriangulation& dt,
                   DelaunayTriangulation::VertexId site, Vec2 a, Vec2 b,
                   double tol2) {
  VORONET_EXPECT(dt.is_live(site), "region_within: dead site");
  const Vec2 s = dt.position(site);
  // Upper bound: both exact distances start from d(s, query) -- the very
  // expression below -- and only go down from it.
  if ((a == b ? dist2(s, a) : dist2_to_segment(a, b, s)) <= tol2) return true;

  // Lower bound: the region lies on s's side of the bisector towards
  // every Delaunay neighbour q, so a query entirely beyond one, by more
  // than tol, is farther than tol from the region.  The margin is 1e-9 of
  // the coordinates' magnitude: the bound and the clipped polygon each
  // err by a few ulps of it.
  const double tol = std::sqrt(tol2);
  const auto mag = [](Vec2 v) { return std::max(std::abs(v.x), std::abs(v.y)); };
  const double scale = 1.0 + std::max({mag(a), mag(b), mag(s)});
  const Neighbours& nbrs = neighbours_of(dt, site);
  for (const auto n : nbrs) {
    const Vec2 q = dt.position(n);
    const Vec2 mid = 0.5 * (s + q);
    const Vec2 normal = q - s;
    const double f = std::min(dot(a - mid, normal), dot(b - mid, normal));
    if (f <= 0.0) continue;
    const double bound = tol + 1e-9 * std::max(scale, 1.0 + mag(q));
    if (f * f > bound * bound * norm2(normal)) return false;
  }
  return dist2_region_to_segment(dt, site, nbrs, a, b) <= tol2;
}

}  // namespace voronet::geo
