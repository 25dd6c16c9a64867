#include "geometry/predicates.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "geometry/expansion.hpp"

namespace voronet::geo {

namespace {

// Machine epsilon in Shewchuk's convention: 2^-53, the largest power of two
// such that 1 + eps rounds to a value distinct from 1 under round-to-even.
constexpr double kEpsilon = 0x1p-53;
constexpr double kResultErrBound = (3.0 + 8.0 * kEpsilon) * kEpsilon;
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kCcwErrBoundB = (2.0 + 12.0 * kEpsilon) * kEpsilon;
constexpr double kCcwErrBoundC = (9.0 + 64.0 * kEpsilon) * kEpsilon * kEpsilon;
constexpr double kIccErrBoundA = (10.0 + 96.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundB = (4.0 + 48.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundC = (44.0 + 576.0 * kEpsilon) * kEpsilon * kEpsilon;

// ---------------------------------------------------------------------------
// Counters.  The predicates are the innermost hot path of the whole system
// (tens of millions of calls per bulk build), so increments must not cost a
// locked RMW: each thread tallies into plain thread-local integers, flushed
// into the global atomics when the thread exits.  parallel_for joins its
// workers before any stats read, so predicate_stats() on the coordinating
// thread sees every finished worker's counts.
// ---------------------------------------------------------------------------

enum CounterIndex {
  kOrientCalls,
  kOrientAdapt,
  kOrientExact,
  kIncircleCalls,
  kIncircleAdapt,
  kIncircleExact,
  kCounterCount,
};

std::atomic<unsigned long long> g_flushed[kCounterCount];

struct LocalStats {
  unsigned long long v[kCounterCount] = {};
  ~LocalStats() {
    for (int i = 0; i < kCounterCount; ++i) {
      if (v[i] != 0) g_flushed[i].fetch_add(v[i], std::memory_order_relaxed);
    }
  }
};
thread_local LocalStats t_stats;

inline void bump(CounterIndex i) { ++t_stats.v[i]; }

int sign_of(double v) { return v > 0.0 ? 1 : (v < 0.0 ? -1 : 0); }

/// Exact 2x2 cross term ux*vy - uy*vx as a <=4-component expansion.
Expansion<4> cross_expansion(Vec2 u, Vec2 v) {
  return Expansion<2>::product(u.x, v.y) - Expansion<2>::product(u.y, v.x);
}

/// Exact squared magnitude ux^2 + uy^2 as a <=4-component expansion.
Expansion<4> lift_expansion(Vec2 u) {
  return Expansion<2>::product(u.x, u.x) + Expansion<2>::product(u.y, u.y);
}

int incircle_exact(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  // 4x4 determinant with rows (x, y, x^2+y^2, 1); expanding along the ones
  // column:  det = -M(b,c,d) + M(a,c,d) - M(a,b,d) + M(a,b,c)
  // where M(u,v,w) = lift(u)*(v x w) - lift(v)*(u x w) + lift(w)*(u x v).
  const auto ab = cross_expansion(a, b);
  const auto ac = cross_expansion(a, c);
  const auto ad = cross_expansion(a, d);
  const auto bc = cross_expansion(b, c);
  const auto bd = cross_expansion(b, d);
  const auto cd = cross_expansion(c, d);

  const auto alift = lift_expansion(a);
  const auto blift = lift_expansion(b);
  const auto clift = lift_expansion(c);
  const auto dlift = lift_expansion(d);

  // M(u,v,w) built from precomputed crosses.
  const auto m_bcd = (blift * cd - clift * bd) + dlift * bc;
  const auto m_acd = (alift * cd - clift * ad) + dlift * ac;
  const auto m_abd = (alift * bd - blift * ad) + dlift * ab;
  const auto m_abc = (alift * bc - blift * ac) + clift * ab;

  const auto det = (m_acd - m_bcd) + (m_abc - m_abd);
  return det.sign();
}

// ---------------------------------------------------------------------------
// Adaptive stages (Shewchuk's B and C).  Each stage refines the previous
// one's value using quantities already computed, so near-degenerate inputs
// are decided for a small constant extra cost; only configurations that
// are degenerate (or within one tail-product of it) reach the full exact
// expansion.
// ---------------------------------------------------------------------------

int orient2d_adapt(Vec2 a, Vec2 b, Vec2 c, double detsum) {
  const double acx = a.x - c.x;
  const double bcx = b.x - c.x;
  const double acy = a.y - c.y;
  const double bcy = b.y - c.y;

  // Stage B: exact expansion of the determinant of the *rounded*
  // translations.  Certifiable unless the translation roundoff matters.
  const auto det_b = Expansion<2>::product(acx, bcy) -
                     Expansion<2>::product(acy, bcx);
  double det = det_b.estimate();
  double errbound = kCcwErrBoundB * detsum;
  if (det >= errbound || -det >= errbound) return sign_of(det);

  const double acxtail = two_diff_tail(a.x, c.x, acx);
  const double bcxtail = two_diff_tail(b.x, c.x, bcx);
  const double acytail = two_diff_tail(a.y, c.y, acy);
  const double bcytail = two_diff_tail(b.y, c.y, bcy);
  if (acxtail == 0.0 && acytail == 0.0 && bcxtail == 0.0 && bcytail == 0.0) {
    // The translations were exact, so det_b is the exact determinant.
    return det_b.sign();
  }

  // Stage C: first-order tail correction of the stage-B estimate.
  errbound = kCcwErrBoundC * detsum + kResultErrBound * std::fabs(det);
  det += (acx * bcytail + bcy * acxtail) - (acy * bcxtail + bcx * acytail);
  if (det >= errbound || -det >= errbound) return sign_of(det);

  // Stage D: exact.  (acx + acxtail)(bcy + bcytail) - (acy + acytail)
  // (bcx + bcxtail) expanded into the four exact partial products.
  bump(kOrientExact);
  const auto d1 = Expansion<2>::product(acxtail, bcy) -
                  Expansion<2>::product(acytail, bcx);
  const auto d2 = Expansion<2>::product(acx, bcytail) -
                  Expansion<2>::product(acy, bcxtail);
  const auto d3 = Expansion<2>::product(acxtail, bcytail) -
                  Expansion<2>::product(acytail, bcxtail);
  return (((det_b + d1) + d2) + d3).sign();
}

int incircle_adapt(Vec2 a, Vec2 b, Vec2 c, Vec2 d, double permanent) {
  const double adx = a.x - d.x;
  const double bdx = b.x - d.x;
  const double cdx = c.x - d.x;
  const double ady = a.y - d.y;
  const double bdy = b.y - d.y;
  const double cdy = c.y - d.y;

  // Stage B: exact expansion of the determinant of the rounded
  // translations, grouped as alift*(b x c) + blift*(c x a) + clift*(a x b).
  const auto bc = Expansion<2>::product(bdx, cdy) -
                  Expansion<2>::product(cdx, bdy);
  const auto ca = Expansion<2>::product(cdx, ady) -
                  Expansion<2>::product(adx, cdy);
  const auto ab = Expansion<2>::product(adx, bdy) -
                  Expansion<2>::product(bdx, ady);
  const auto adet = bc.scaled(adx).scaled(adx) + bc.scaled(ady).scaled(ady);
  const auto bdet = ca.scaled(bdx).scaled(bdx) + ca.scaled(bdy).scaled(bdy);
  const auto cdet = ab.scaled(cdx).scaled(cdx) + ab.scaled(cdy).scaled(cdy);
  const auto det_b = (adet + bdet) + cdet;
  double det = det_b.estimate();
  double errbound = kIccErrBoundB * permanent;
  if (det >= errbound || -det >= errbound) return sign_of(det);

  const double adxtail = two_diff_tail(a.x, d.x, adx);
  const double adytail = two_diff_tail(a.y, d.y, ady);
  const double bdxtail = two_diff_tail(b.x, d.x, bdx);
  const double bdytail = two_diff_tail(b.y, d.y, bdy);
  const double cdxtail = two_diff_tail(c.x, d.x, cdx);
  const double cdytail = two_diff_tail(c.y, d.y, cdy);
  if (adxtail == 0.0 && adytail == 0.0 && bdxtail == 0.0 &&
      bdytail == 0.0 && cdxtail == 0.0 && cdytail == 0.0) {
    // Exact translations: det_b is the exact incircle determinant.
    return det_b.sign();
  }

  // Stage C: first-order tail correction.
  errbound = kIccErrBoundC * permanent + kResultErrBound * std::fabs(det);
  det += ((adx * adx + ady * ady) *
              ((bdx * cdytail + cdy * bdxtail) -
               (bdy * cdxtail + cdx * bdytail)) +
          2.0 * (adx * adxtail + ady * adytail) * (bdx * cdy - bdy * cdx)) +
         ((bdx * bdx + bdy * bdy) *
              ((cdx * adytail + ady * cdxtail) -
               (cdy * adxtail + adx * cdytail)) +
          2.0 * (bdx * bdxtail + bdy * bdytail) * (cdx * ady - cdy * adx)) +
         ((cdx * cdx + cdy * cdy) *
              ((adx * bdytail + bdy * adxtail) -
               (ady * bdxtail + bdx * adytail)) +
          2.0 * (cdx * cdxtail + cdy * cdytail) * (adx * bdy - ady * bdx));
  if (det >= errbound || -det >= errbound) return sign_of(det);

  // Stage D: full exact evaluation from the original coordinates.
  bump(kIncircleExact);
  return incircle_exact(a, b, c, d);
}

}  // namespace

int orient2d(Vec2 a, Vec2 b, Vec2 c) {
  bump(kOrientCalls);

  const double detleft = (a.x - c.x) * (b.y - c.y);
  const double detright = (a.y - c.y) * (b.x - c.x);
  const double det = detleft - detright;

  double detsum;
  if (detleft > 0.0) {
    if (detright <= 0.0) return sign_of(det);
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return sign_of(det);
    detsum = -detleft - detright;
  } else {
    return sign_of(det);
  }

  const double errbound = kCcwErrBoundA * detsum;
  if (det > errbound || -det > errbound) return sign_of(det);

  bump(kOrientAdapt);
  return orient2d_adapt(a, b, c, detsum);
}

int incircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  bump(kIncircleCalls);

  const double adx = a.x - d.x;
  const double bdx = b.x - d.x;
  const double cdx = c.x - d.x;
  const double ady = a.y - d.y;
  const double bdy = b.y - d.y;
  const double cdy = c.y - d.y;

  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double alift = adx * adx + ady * ady;

  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double blift = bdx * bdx + bdy * bdy;

  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);

  const double permanent = (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
                           (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
                           (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
  const double errbound = kIccErrBoundA * permanent;
  if (det > errbound || -det > errbound) return sign_of(det);

  bump(kIncircleAdapt);
  return incircle_adapt(a, b, c, d, permanent);
}

double orient2d_estimate(Vec2 a, Vec2 b, Vec2 c) {
  return (a.x - c.x) * (b.y - c.y) - (a.y - c.y) * (b.x - c.x);
}

Vec2 circumcenter(Vec2 a, Vec2 b, Vec2 c) {
  // Translate so a is the origin: solves the 2x2 linear system for the
  // center; relative error is fine for Voronoi geometry.
  const double bx = b.x - a.x;
  const double by = b.y - a.y;
  const double cx = c.x - a.x;
  const double cy = c.y - a.y;
  const double bl = bx * bx + by * by;
  const double cl = cx * cx + cy * cy;
  const double d = 2.0 * (bx * cy - by * cx);
  const double ux = (cy * bl - by * cl) / d;
  const double uy = (bx * cl - cx * bl) / d;
  return {a.x + ux, a.y + uy};
}

Vec2 closest_point_on_segment(Vec2 a, Vec2 b, Vec2 p) {
  const Vec2 ab = b - a;
  const double len2 = norm2(ab);
  if (len2 == 0.0) return a;
  double t = dot(p - a, ab) / len2;
  if (t < 0.0) t = 0.0;
  if (t > 1.0) t = 1.0;
  return a + t * ab;
}

double dist2_to_segment(Vec2 a, Vec2 b, Vec2 p) {
  return dist2(p, closest_point_on_segment(a, b, p));
}

double dist2_segment_segment(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  if (segments_intersect(a, b, c, d)) return 0.0;
  // Disjoint segments: the minimum distance is attained at an endpoint of
  // one of them against the other.
  double best = dist2_to_segment(c, d, a);
  best = std::min(best, dist2_to_segment(c, d, b));
  best = std::min(best, dist2_to_segment(a, b, c));
  best = std::min(best, dist2_to_segment(a, b, d));
  return best;
}

bool on_segment(Vec2 a, Vec2 b, Vec2 p) {
  if (orient2d(a, b, p) != 0) return false;
  // Collinear: check the bounding box of the segment.
  const double lox = a.x < b.x ? a.x : b.x;
  const double hix = a.x < b.x ? b.x : a.x;
  const double loy = a.y < b.y ? a.y : b.y;
  const double hiy = a.y < b.y ? b.y : a.y;
  return p.x >= lox && p.x <= hix && p.y >= loy && p.y <= hiy;
}

bool segments_intersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const int o1 = orient2d(a, b, c);
  const int o2 = orient2d(a, b, d);
  const int o3 = orient2d(c, d, a);
  const int o4 = orient2d(c, d, b);
  if (o1 != o2 && o3 != o4) return true;
  if (o1 == 0 && on_segment(a, b, c)) return true;
  if (o2 == 0 && on_segment(a, b, d)) return true;
  if (o3 == 0 && on_segment(c, d, a)) return true;
  if (o4 == 0 && on_segment(c, d, b)) return true;
  return false;
}

PredicateStats predicate_stats() {
  const auto total = [](CounterIndex i) {
    return g_flushed[i].load(std::memory_order_relaxed) + t_stats.v[i];
  };
  return {total(kOrientCalls),   total(kOrientAdapt),   total(kOrientExact),
          total(kIncircleCalls), total(kIncircleAdapt), total(kIncircleExact)};
}

void reset_predicate_stats() {
  for (int i = 0; i < kCounterCount; ++i) {
    g_flushed[i].store(0, std::memory_order_relaxed);
    t_stats.v[i] = 0;
  }
}

}  // namespace voronet::geo
