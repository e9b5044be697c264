#include "store/tier.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "wavelet/coeff.hpp"
#include "wavelet/haar.hpp"
#include "wavelet/reconstruct.hpp"

namespace umon::store {
namespace {

/// A detail coefficient with its L2 weight computed once.
struct Weighted {
  double weight;
  wavelet::DetailCoeff coeff;
};

/// Keep the top details of `ranked` by L2 weight, as many as `params`
/// allows, in (level, index) order for the wire. The retained count depends
/// only on the counts (the byte clamp shrinks it one coefficient at a time),
/// so the head is selected in O(n) under the total order weight descending,
/// then level, then index — ties never make the choice ambiguous.
std::vector<wavelet::DetailCoeff> select_top(std::vector<Weighted>& ranked,
                                             std::size_t approx_count,
                                             const TierParams& params) {
  std::size_t keep = std::min(ranked.size(), params.budget_coeffs);
  if (params.max_payload_bytes > 0) {
    while (keep > 0 &&
           coeff_payload_bytes(approx_count, keep) > params.max_payload_bytes) {
      --keep;
    }
  }
  const auto heavier = [](const Weighted& a, const Weighted& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.coeff.level != b.coeff.level) return a.coeff.level < b.coeff.level;
    return a.coeff.index < b.coeff.index;
  };
  const auto head = ranked.begin() + static_cast<std::ptrdiff_t>(keep);
  std::nth_element(ranked.begin(), head, ranked.end(), heavier);
  std::vector<wavelet::DetailCoeff> out;
  out.reserve(keep);
  for (auto it = ranked.begin(); it != head; ++it) out.push_back(it->coeff);
  std::sort(out.begin(), out.end(),
            [](const wavelet::DetailCoeff& a, const wavelet::DetailCoeff& b) {
              if (a.level != b.level) return a.level < b.level;
              return a.index < b.index;
            });
  return out;
}

}  // namespace

CoeffCurveRecord tier_from_dense(const FlowKey& flow, WindowId w0,
                                 std::span<const double> dense,
                                 const TierParams& params) {
  CoeffCurveRecord rec;
  rec.flow = flow;
  rec.w0 = w0;
  rec.length = static_cast<std::uint32_t>(dense.size());

  // Densified chunks are mostly idle windows: skip llround on zeros.
  std::vector<Count> counts(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) counts[i] = static_cast<Count>(std::llround(dense[i]));
  }

  const std::uint32_t padded = wavelet::next_pow2(rec.length);
  const int full_depth =
      wavelet::effective_levels(padded, 8 * static_cast<int>(sizeof(padded)));
  const wavelet::Decomposition d = wavelet::haar_forward(counts, full_depth);
  rec.levels = d.levels;
  rec.approx = d.approx;

  // Weigh every nonzero detail once; select_top keeps the head.
  std::vector<Weighted> ranked;
  for (int l = 0; l < d.levels; ++l) {
    const auto& row = d.details[static_cast<std::size_t>(l)];
    const double norm = wavelet::level_norm(l);  // l2_weight, sqrt hoisted
    for (std::uint32_t j = 0; j < row.size(); ++j) {
      if (row[j] == 0) continue;
      ranked.push_back(Weighted{
          std::abs(static_cast<double>(row[j])) / norm,
          wavelet::DetailCoeff{static_cast<std::uint8_t>(l), j, row[j]}});
    }
  }
  rec.details = select_top(ranked, rec.approx.size(), params);
  return rec;
}

CoeffCurveRecord truncate_coeffs(const CoeffCurveRecord& in,
                                 const TierParams& params) {
  CoeffCurveRecord rec;
  rec.flow = in.flow;
  rec.w0 = in.w0;
  rec.length = in.length;
  rec.levels = in.levels;
  rec.approx = in.approx;
  std::vector<Weighted> ranked;
  ranked.reserve(in.details.size());
  for (const wavelet::DetailCoeff& c : in.details) {
    ranked.push_back(Weighted{wavelet::l2_weight(c), c});
  }
  rec.details = select_top(ranked, rec.approx.size(), params);
  return rec;
}

double reconstruction_nmse(const CoeffCurveRecord& rec,
                           std::span<const double> reference) {
  const std::vector<double> got =
      wavelet::reconstruct(rec.approx, rec.details, rec.length, rec.levels);
  double err = 0.0;
  double ref = 0.0;
  const std::size_t n = std::min(got.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double want = reference[i];
    const double have = i < n ? got[i] : 0.0;
    err += (have - want) * (have - want);
    ref += want * want;
  }
  if (ref == 0.0) return err == 0.0 ? 0.0 : 1.0;
  return err / ref;
}

}  // namespace umon::store
