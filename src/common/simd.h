// Fixed-width double lane abstraction for the hot kernels (the SA
// evaluator's folds, the MLP's matrix product and Adam update): an
// SSE2 baseline (2 lanes, implied by x86-64), AVX2/AVX when compiled in
// (4 lanes, -mavx2), and a scalar fallback elsewhere — selected at compile
// time, with a runtime-dispatch hook (set_enabled) that forces the scalar
// path in-process so tests and benches can race both paths in one binary.
//
// Bit-identity contract (why the vector kernels below are safe to substitute
// for their scalar originals):
//   - IEEE-754 addition, subtraction, multiplication, division, square root,
//     min, and max are exact per element: a packed divpd (or sqrtpd, mulpd,
//     ...) computes the identical rounded result in every lane that divsd
//     computes for that element, so element-wise expressions like a/b + c
//     are bit-identical however many lanes evaluate at once. A separate
//     mul and add stay two roundings: no build enables FMA (-mfma or a
//     -march that implies it), so there is no fused instruction for the
//     compiler to contract them into.
//   - min/max are associative and commutative on the NaN-free data the
//     evaluator folds (bandwidths, priced latencies), so regrouping a
//     sequential fold into vector accumulators + a horizontal reduce picks
//     the same element — bit-identical, just like the evaluator's historical
//     multi-accumulator scalar folds.
//   Sums are NOT reassociated anywhere: every kernel here either folds with
//   min/max or keeps the scalar bracketing per element.
//
// The fold helpers (min_fold/max_fold/price_max/group_class_mins) are what
// the evaluator calls; each consults enabled() once and falls back to the
// historical scalar loop shape, so `set_enabled(false)` measures the true
// pre-SIMD code.
#pragma once

#include <atomic>
#include <cmath>
#include <limits>

#if defined(__AVX2__) || defined(__AVX__)
#include <immintrin.h>
#define PIPETTE_SIMD_LANES 4
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define PIPETTE_SIMD_LANES 2
#else
#define PIPETTE_SIMD_LANES 1
#endif

namespace pipette::common::simd {

inline constexpr int kLanes = PIPETTE_SIMD_LANES;

/// Compile-time selected instruction set of the Lane type.
inline constexpr const char* isa_name() {
#if PIPETTE_SIMD_LANES == 4
  return "avx2";
#elif PIPETTE_SIMD_LANES == 2
  return "sse2";
#else
  return "scalar";
#endif
}

namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// Runtime-dispatch hook: the fold helpers take the vector path only while
/// enabled() (relaxed atomic — a plain load in the kernels). Both paths are
/// bit-identical by the contract above; toggling exists so one binary can
/// measure and cross-check scalar vs SIMD (bench/sa_throughput's simd
/// columns, the bit-identity tests).
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
inline void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

/// One register of kLanes doubles. Thin wrapper: every op maps to a single
/// intrinsic (or the plain scalar op at kLanes == 1).
struct Lane {
#if PIPETTE_SIMD_LANES == 4
  __m256d v;
  static Lane load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Lane broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  friend Lane operator+(Lane a, Lane b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Lane operator-(Lane a, Lane b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Lane operator*(Lane a, Lane b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Lane operator/(Lane a, Lane b) { return {_mm256_div_pd(a.v, b.v)}; }
  static Lane sqrt(Lane a) { return {_mm256_sqrt_pd(a.v)}; }
  static Lane min(Lane a, Lane b) { return {_mm256_min_pd(a.v, b.v)}; }
  static Lane max(Lane a, Lane b) { return {_mm256_max_pd(a.v, b.v)}; }
  static Lane cmpeq(Lane a, Lane b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)}; }
  /// mask ? a : b per lane (mask from cmpeq: all-ones or all-zeros).
  static Lane select(Lane mask, Lane a, Lane b) {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }
  double hmin() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d m = _mm_min_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
  }
  double hmax() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d m = _mm_max_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
  }
#elif PIPETTE_SIMD_LANES == 2
  __m128d v;
  static Lane load(const double* p) { return {_mm_loadu_pd(p)}; }
  static Lane broadcast(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  friend Lane operator+(Lane a, Lane b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Lane operator-(Lane a, Lane b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend Lane operator*(Lane a, Lane b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Lane operator/(Lane a, Lane b) { return {_mm_div_pd(a.v, b.v)}; }
  static Lane sqrt(Lane a) { return {_mm_sqrt_pd(a.v)}; }
  static Lane min(Lane a, Lane b) { return {_mm_min_pd(a.v, b.v)}; }
  static Lane max(Lane a, Lane b) { return {_mm_max_pd(a.v, b.v)}; }
  static Lane cmpeq(Lane a, Lane b) { return {_mm_cmpeq_pd(a.v, b.v)}; }
  /// SSE2 has no blend: and/andnot/or select (mask is all-ones/all-zeros).
  static Lane select(Lane mask, Lane a, Lane b) {
    return {_mm_or_pd(_mm_and_pd(mask.v, a.v), _mm_andnot_pd(mask.v, b.v))};
  }
  double hmin() const { return _mm_cvtsd_f64(_mm_min_sd(v, _mm_unpackhi_pd(v, v))); }
  double hmax() const { return _mm_cvtsd_f64(_mm_max_sd(v, _mm_unpackhi_pd(v, v))); }
#else
  double v;
  static Lane load(const double* p) { return {*p}; }
  static Lane broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }
  friend Lane operator+(Lane a, Lane b) { return {a.v + b.v}; }
  friend Lane operator-(Lane a, Lane b) { return {a.v - b.v}; }
  friend Lane operator*(Lane a, Lane b) { return {a.v * b.v}; }
  friend Lane operator/(Lane a, Lane b) { return {a.v / b.v}; }
  static Lane sqrt(Lane a) { return {std::sqrt(a.v)}; }
  static Lane min(Lane a, Lane b) { return {a.v < b.v ? a.v : b.v}; }
  static Lane max(Lane a, Lane b) { return {a.v > b.v ? a.v : b.v}; }
  static Lane cmpeq(Lane a, Lane b) { return {a.v == b.v ? 1.0 : 0.0}; }
  static Lane select(Lane mask, Lane a, Lane b) { return {mask.v != 0.0 ? a.v : b.v}; }
  double hmin() const { return v; }
  double hmax() const { return v; }
#endif

  /// Fused pricing form a/b + c: one div + one add per lane, the exact
  /// bracketing of the scalar `bytes/bw + lat` (no FMA contraction is
  /// possible on a division, so the rounding is the scalar's).
  static Lane div_add(Lane a, Lane b, Lane c) { return a / b + c; }
};

/// min over p[0..n): vector accumulators + horizontal reduce when enabled,
/// the historical four-accumulator scalar fold otherwise. Bit-identical
/// either way (min is exact and order-free). n == 0 returns +inf.
inline double min_fold(const double* p, int n) {
  const double inf = std::numeric_limits<double>::infinity();
  if constexpr (kLanes > 1) {
    if (enabled() && n >= 2 * kLanes) {
      Lane a0 = Lane::broadcast(inf), a1 = Lane::broadcast(inf);
      int i = 0;
      for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
        a0 = Lane::min(a0, Lane::load(p + i));
        a1 = Lane::min(a1, Lane::load(p + i + kLanes));
      }
      for (; i + kLanes <= n; i += kLanes) a0 = Lane::min(a0, Lane::load(p + i));
      double m = Lane::min(a0, a1).hmin();
      for (; i < n; ++i) m = m < p[i] ? m : p[i];
      return m;
    }
  }
  double m0 = inf, m1 = inf, m2 = inf, m3 = inf;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = m0 < p[i] ? m0 : p[i];
    m1 = m1 < p[i + 1] ? m1 : p[i + 1];
    m2 = m2 < p[i + 2] ? m2 : p[i + 2];
    m3 = m3 < p[i + 3] ? m3 : p[i + 3];
  }
  for (; i < n; ++i) m0 = m0 < p[i] ? m0 : p[i];
  const double ma = m0 < m1 ? m0 : m1;
  const double mb = m2 < m3 ? m2 : m3;
  return ma < mb ? ma : mb;
}

/// max over {init, p[0..n)}: same dispatch and identity argument as min_fold.
inline double max_fold(const double* p, int n, double init) {
  if constexpr (kLanes > 1) {
    if (enabled() && n >= 2 * kLanes) {
      Lane a0 = Lane::broadcast(init), a1 = Lane::broadcast(init);
      int i = 0;
      for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
        a0 = Lane::max(a0, Lane::load(p + i));
        a1 = Lane::max(a1, Lane::load(p + i + kLanes));
      }
      for (; i + kLanes <= n; i += kLanes) a0 = Lane::max(a0, Lane::load(p + i));
      double m = Lane::max(a0, a1).hmax();
      for (; i < n; ++i) m = m > p[i] ? m : p[i];
      return m;
    }
  }
  double m = init;
  for (int i = 0; i < n; ++i) m = m > p[i] ? m : p[i];
  return m;
}

/// The flow-pricing kernel of reprice_hop_column's columnar cost assembly:
/// max over y of (bytes/bw_fwd + lat) + (bytes/bw_bwd + lat).
/// Each element keeps the scalar bracketing exactly (div_add twice, then one
/// add); the max fold is order-free, so the wide fold + horizontal reduce is
/// bit-identical to the full model's sequential scan. All inputs are
/// non-negative, matching the scalar accumulator's 0.0 start.
inline double price_max(const double* bytes, const double* bwf, const double* bwb,
                        const double* lat, int n) {
  if constexpr (kLanes > 1) {
    if (enabled() && n >= kLanes) {
      Lane acc = Lane::broadcast(0.0);
      int i = 0;
      for (; i + kLanes <= n; i += kLanes) {
        const Lane by = Lane::load(bytes + i);
        const Lane l = Lane::load(lat + i);
        const Lane fwd = Lane::div_add(by, Lane::load(bwf + i), l);
        const Lane bwd = Lane::div_add(by, Lane::load(bwb + i), l);
        acc = Lane::max(acc, fwd + bwd);
      }
      double h = acc.hmax();
      for (; i < n; ++i) {
        const double fwd = bytes[i] / bwf[i] + lat[i];
        const double bwd = bytes[i] / bwb[i] + lat[i];
        const double s = fwd + bwd;
        h = h > s ? h : s;
      }
      return h;
    }
  }
  double h = 0.0;
  for (int i = 0; i < n; ++i) {
    const double fwd = bytes[i] / bwf[i] + lat[i];
    const double bwd = bytes[i] / bwb[i] + lat[i];
    const double s = fwd + bwd;
    h = h > s ? h : s;
  }
  return h;
}

/// The 2x2 group min fold of recompute_group_mins: over the dp x dp cached
/// bandwidth block `sub`, fold row z1's entries into min_intra where
/// nodes[z1] == nodes[z2] and into min_inter otherwise. `nodes` holds the
/// member node ids converted to double (exact for any realistic id), so the
/// class test is a lane compare + select feeding +inf to the other class —
/// a no-op on an exact min, exactly like the scalar ternary. Diagonals are
/// +inf by invariant and fold as no-ops into min_intra.
inline void group_class_mins(const double* sub, const double* nodes, int dp,
                             double* min_intra, double* min_inter) {
  const double inf = std::numeric_limits<double>::infinity();
  if constexpr (kLanes > 1) {
    if (enabled() && dp >= kLanes) {
      const Lane vinf = Lane::broadcast(inf);
      Lane ia = vinf, ie = vinf;
      double ta = inf, te = inf;
      for (int z1 = 0; z1 < dp; ++z1) {
        const double n1 = nodes[z1];
        const Lane vn1 = Lane::broadcast(n1);
        const double* row = sub + z1 * dp;
        int z2 = 0;
        for (; z2 + kLanes <= dp; z2 += kLanes) {
          const Lane b = Lane::load(row + z2);
          const Lane mask = Lane::cmpeq(vn1, Lane::load(nodes + z2));
          ia = Lane::min(ia, Lane::select(mask, b, vinf));
          ie = Lane::min(ie, Lane::select(mask, vinf, b));
        }
        for (; z2 < dp; ++z2) {
          const double b = row[z2];
          const bool s = n1 == nodes[z2];
          const double va = s ? b : inf;
          const double ve = s ? inf : b;
          ta = ta < va ? ta : va;
          te = te < ve ? te : ve;
        }
      }
      const double ha = ia.hmin();
      const double he = ie.hmin();
      *min_intra = ta < ha ? ta : ha;
      *min_inter = te < he ? te : he;
      return;
    }
  }
  // Historical branchless scalar fold: two accumulators per class, pairs of
  // selects per step (see recompute_group_mins before the SIMD port).
  double ia0 = inf, ia1 = inf, ie0 = inf, ie1 = inf;
  for (int z1 = 0; z1 < dp; ++z1) {
    const double n1 = nodes[z1];
    const double* row = sub + z1 * dp;
    int z2 = 0;
    for (; z2 + 2 <= dp; z2 += 2) {
      const double b0 = row[z2], b1 = row[z2 + 1];
      const bool s0 = n1 == nodes[z2], s1 = n1 == nodes[z2 + 1];
      const double a0 = s0 ? b0 : inf, e0 = s0 ? inf : b0;
      const double a1 = s1 ? b1 : inf, e1 = s1 ? inf : b1;
      ia0 = ia0 < a0 ? ia0 : a0;
      ie0 = ie0 < e0 ? ie0 : e0;
      ia1 = ia1 < a1 ? ia1 : a1;
      ie1 = ie1 < e1 ? ie1 : e1;
    }
    for (; z2 < dp; ++z2) {
      const double b = row[z2];
      const bool s = n1 == nodes[z2];
      const double va = s ? b : inf;
      const double ve = s ? inf : b;
      ia0 = ia0 < va ? ia0 : va;
      ie0 = ie0 < ve ? ie0 : ve;
    }
  }
  *min_intra = ia0 < ia1 ? ia0 : ia1;
  *min_inter = ie0 < ie1 ? ie0 : ie1;
}

}  // namespace pipette::common::simd
