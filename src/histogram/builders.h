// pathest: histogram construction policies.
//
// Every builder takes the frequency sequence in domain order (one value per
// label-path index under a chosen ordering) and a bucket budget β, and
// returns a Histogram. The V-optimal objective (minimum total within-bucket
// SSE) has two implementations:
//   * BuildVOptimalExact  — the exact DP with SSE-bound pruned split scans
//     and Hirschberg-style boundary recovery: O(n) memory (no parent
//     matrix), worst case O(n² β) but short measured scans on path
//     distributions (see v_optimal.cc for why the textbook monotone-split
//     divide-and-conquer is unsound for segment SSE); reference quality,
//     guarded by max_n;
//   * BuildVOptimalGreedy — bottom-up adjacent-bucket merging, O(n log n);
//     the scalable builder used at paper scale (n = 55 986 with β up to
//     n/2), see the README's "Design notes". An indexed binary heap holds
//     exactly one entry per live adjacent pair, keyed by its ΔSSE; a merge
//     re-keys or erases the affected pairs in place, so no stale entry is
//     ever popped. Each step merges the pair with the smallest
//     (ΔSSE, left bucket position): an exact ΔSSE tie goes to the leftmost
//     pair, so the result depends on the data alone, not on the heap
//     layout or the standard library.
//
// Shared-stats engine: every builder also has an overload taking a
// DistributionStats (histogram/stats.h) — prefix sums of counts and squared
// counts, total-mass and max lookups, computed ONCE per distribution and
// reused by every build over it. With shared stats, equi-depth boundary
// construction is O(β log n) binary search on prefix mass, maxdiff and
// end-biased take their cut candidates via nth_element prefixes, and every
// SSE the V-optimal builders evaluate is an O(1) range lookup. The
// vector-based entry points remain and build a private DistributionStats
// where one is needed, so both spellings produce bit-identical histograms.
//
// Multi-β sweep contract: BuildHistogramSweep(type, stats, betas) returns
// one histogram per requested β (input order preserved; duplicates and
// unsorted inputs allowed; β > n clamps to n exactly like the per-β
// builders), and each returned histogram is BIT-IDENTICAL to the
// corresponding independent per-β build — same boundaries, same
// double-precision bucket sums (enforced by tests/histogram_sweep_test.cc).
// Where the policy has an incremental form the sweep shares the dominant
// work across all β:
//   * kVOptimal — BuildVOptimalGreedySweep runs the indexed-heap merge
//     ONCE from n singletons down to the smallest requested β and snapshots
//     boundaries every time the live-bucket count crosses a requested
//     level: the whole β = n/2 ... n/128 sweep costs one merge run instead
//     of seven.
//   * kMaxDiff / kEndBiased — one ranked top-k selection (largest gaps /
//     highest frequencies) serves every β as a prefix.
//   * kEquiWidth / kEquiDepth / kVOptimalExact — no incremental form; the
//     sweep falls back to per-β builds over the shared stats.

#ifndef PATHEST_HISTOGRAM_BUILDERS_H_
#define PATHEST_HISTOGRAM_BUILDERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "histogram/histogram.h"
#include "histogram/stats.h"
#include "util/status.h"

namespace pathest {

/// \brief Default domain-size ceiling for the exact V-optimal DP. The
/// pruned-scan + Hirschberg implementation (see v_optimal.cc) lifted the
/// seed's 4096 ceiling: memory is O(n) and measured build times on path
/// distributions stay in seconds well past 10⁴ values. The worst case is
/// still O(n² β), so callers probing adversarial data at large β should
/// pass their own budget.
inline constexpr size_t kVOptimalExactDefaultMaxN = 16384;

/// \brief Equal-width buckets: boundary positions evenly spaced.
Result<Histogram> BuildEquiWidth(const std::vector<uint64_t>& data,
                                 size_t num_buckets);
Result<Histogram> BuildEquiWidth(const DistributionStats& stats,
                                 size_t num_buckets);

/// \brief Equal-depth (equi-sum) buckets: each bucket holds ~1/β of the
/// total frequency mass. With shared stats, boundary construction is
/// O(β log n) binary search on prefix mass.
Result<Histogram> BuildEquiDepth(const std::vector<uint64_t>& data,
                                 size_t num_buckets);
Result<Histogram> BuildEquiDepth(const DistributionStats& stats,
                                 size_t num_buckets);

/// \brief Exact V-optimal via dynamic programming with SSE-bound pruned
/// split scans and Hirschberg-style boundary recovery: O(n) working
/// memory, no parent matrix. Rejects n > max_n to keep the cost bounded.
Result<Histogram> BuildVOptimalExact(const std::vector<uint64_t>& data,
                                     size_t num_buckets,
                                     size_t max_n = kVOptimalExactDefaultMaxN);
Result<Histogram> BuildVOptimalExact(const DistributionStats& stats,
                                     size_t num_buckets,
                                     size_t max_n = kVOptimalExactDefaultMaxN);

/// \brief Greedy approximate V-optimal: start from singleton buckets and
/// repeatedly merge the adjacent pair with the smallest SSE increase, the
/// leftmost pair on an exact tie. Domains are limited to 2^32 - 2
/// positions.
Result<Histogram> BuildVOptimalGreedy(const std::vector<uint64_t>& data,
                                      size_t num_buckets);
Result<Histogram> BuildVOptimalGreedy(const DistributionStats& stats,
                                      size_t num_buckets);

/// \brief MaxDiff: boundaries at the β-1 largest adjacent frequency gaps
/// (selected via nth_element, never a full sort).
Result<Histogram> BuildMaxDiff(const std::vector<uint64_t>& data,
                               size_t num_buckets);
Result<Histogram> BuildMaxDiff(const DistributionStats& stats,
                               size_t num_buckets);

/// \brief End-biased: singleton buckets for the ~β/2 highest-frequency
/// positions (selected via nth_element, never a full sort), remaining runs
/// bucketed contiguously. Total buckets <= β.
Result<Histogram> BuildEndBiased(const std::vector<uint64_t>& data,
                                 size_t num_buckets);
Result<Histogram> BuildEndBiased(const DistributionStats& stats,
                                 size_t num_buckets);

/// \brief Instrumentation of the greedy-merge engine: how many merge passes
/// were started and how many bucket merges they performed. Tests use this
/// to prove a whole sweep costs ONE pass.
struct GreedyMergeMetrics {
  size_t merge_runs = 0;
  size_t merges = 0;
};

/// \brief The incremental multi-β greedy V-optimal sweep: one merge run
/// from n singletons down to min(betas), snapshotting boundaries at every
/// requested level. Returns one histogram per input β (order preserved),
/// each bit-identical to the independent BuildVOptimalGreedy build.
/// `metrics`, when non-null, is incremented (not reset).
Result<std::vector<Histogram>> BuildVOptimalGreedySweep(
    const DistributionStats& stats, const std::vector<size_t>& betas,
    GreedyMergeMetrics* metrics = nullptr);

/// \brief Multi-β maxdiff: ONE ranked gap selection (for the largest β)
/// serves every smaller β as a prefix. Same alignment/identity contract as
/// BuildVOptimalGreedySweep.
Result<std::vector<Histogram>> BuildMaxDiffSweep(
    const DistributionStats& stats, const std::vector<size_t>& betas);

/// \brief Multi-β end-biased: ONE ranked top-frequency selection serves
/// every β as a prefix. Same alignment/identity contract.
Result<std::vector<Histogram>> BuildEndBiasedSweep(
    const DistributionStats& stats, const std::vector<size_t>& betas);

/// \brief Histogram construction policy selector.
enum class HistogramType {
  kEquiWidth,
  kEquiDepth,
  kVOptimal,       // greedy at any scale (paper-scale default)
  kVOptimalExact,  // DP, bounded domains (see kVOptimalExactDefaultMaxN)
  kMaxDiff,
  kEndBiased,
};

/// \brief Short names: "equi-width", "equi-depth", "v-optimal",
/// "v-optimal-exact", "maxdiff", "end-biased".
const char* HistogramTypeName(HistogramType type);

/// \brief Name -> type lookup.
Result<HistogramType> ParseHistogramType(const std::string& name);

/// \brief Dispatches to the matching builder.
Result<Histogram> BuildHistogram(HistogramType type,
                                 const std::vector<uint64_t>& data,
                                 size_t num_buckets);
Result<Histogram> BuildHistogram(HistogramType type,
                                 const DistributionStats& stats,
                                 size_t num_buckets);

/// \brief Builds the whole β sweep of one policy over shared stats (see
/// the multi-β sweep contract in the file comment). Policies with an
/// incremental form share their dominant work across all β; the rest fall
/// back to per-β builds over `stats`.
Result<std::vector<Histogram>> BuildHistogramSweep(
    HistogramType type, const DistributionStats& stats,
    const std::vector<size_t>& betas);

}  // namespace pathest

#endif  // PATHEST_HISTOGRAM_BUILDERS_H_
