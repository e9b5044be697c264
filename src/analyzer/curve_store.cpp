#include "analyzer/curve_store.hpp"

#include <algorithm>
#include <iterator>

namespace umon::analyzer {

namespace {

constexpr auto kByWindow = [](const auto& a, const auto& b) {
  return a.first < b.first;
};

}  // namespace

void FlowCurveStore::add(const FlowKey& flow, CurveFragment fragment) {
  std::vector<std::pair<WindowId, double>> sparse;
  for (std::size_t i = 0; i < fragment.bytes_per_window.size(); ++i) {
    const double v = fragment.bytes_per_window[i];
    if (v != 0) sparse.emplace_back(fragment.w0 + static_cast<WindowId>(i), v);
  }
  if (sparse.empty()) {
    flows_[flow.packed()].key = flow;  // a known flow, even if all-zero
    return;
  }
  add_sparse(flow, sparse);
}

void FlowCurveStore::add_sparse(
    const FlowKey& flow,
    std::span<const std::pair<WindowId, double>> windows,
    WindowId window_offset) {
  if (windows.empty()) return;
  Entry& e = flows_[flow.packed()];
  e.key = flow;
  WindowVec& v = e.windows;
  const std::size_t old_size = v.size();
  const std::size_t old_capacity = v.capacity();
  const auto nonzero = static_cast<std::size_t>(
      std::count_if(windows.begin(), windows.end(),
                    [](const auto& p) { return p.second != 0; }));
  if (old_size + nonzero > old_capacity) {
    v.reserve(std::max(old_size + nonzero, 2 * old_capacity));
  }
  for (const auto& [w, x] : windows) {
    if (x != 0) v.emplace_back(w - window_offset, x);
  }
  window_capacity_ += v.capacity() - old_capacity;
  if (v.size() == old_size) return;
  // The sink sees the batch as it arrived (offset-corrected, zeros
  // stripped), before it is folded into the curve.
  if (sink_ != nullptr) {
    sink_->on_sparse(flow, std::span<const Window>(v).subspan(old_size));
  }
  merge_appended(e, old_size);
  total_windows_ += v.size() - old_size;
}

void FlowCurveStore::merge_appended(Entry& e, std::size_t old_size) {
  WindowVec& v = e.windows;
  const auto batch = v.begin() + static_cast<std::ptrdiff_t>(old_size);
  if (!std::is_sorted(batch, v.end(), kByWindow)) {
    std::stable_sort(batch, v.end(), kByWindow);  // equal windows keep order
  }
  // `start` opens the sorted run that still needs equal windows summed.
  auto start = batch;
  if (old_size > 0) {
    if (std::prev(batch)->first <= batch->first) {
      start = std::prev(batch);  // in order: may only extend the last window
    } else {
      // Out of order: merge the batch with the stored tail it overlaps.
      // std::merge puts stored windows before equal batch windows, so the
      // sums below run in arrival order.
      start = std::lower_bound(v.begin(), batch, *batch, kByWindow);
      WindowVec merged;
      merged.reserve(static_cast<std::size_t>(v.end() - start));
      std::merge(start, batch, batch, v.end(), std::back_inserter(merged),
                 kByWindow);
      std::copy(merged.begin(), merged.end(), start);
    }
  }
  auto out = start;
  for (auto in = std::next(start); in != v.end(); ++in) {
    if (in->first == out->first) {
      out->second += in->second;
    } else {
      *++out = *in;
    }
  }
  v.erase(std::next(out), v.end());
}

std::vector<double> FlowCurveStore::range(const FlowKey& flow, WindowId from,
                                          WindowId to) const {
  std::vector<double> out(
      static_cast<std::size_t>(to > from ? to - from : 0), 0.0);
  auto it = flows_.find(flow.packed());
  if (it == flows_.end()) return out;
  // Extent-index short-circuit: a range entirely outside the flow's
  // lifetime has no stored windows and nothing gap-fill could interpolate
  // (interpolation needs a stored neighbor on both sides), so skip the
  // window search and the marks scan outright.
  const auto& windows = it->second.windows;
  if (windows.empty() || to <= windows.front().first ||
      from > windows.back().first) {
    return out;
  }
  for (auto w = std::lower_bound(windows.begin(), windows.end(),
                                 Window{from, 0.0}, kByWindow);
       w != windows.end() && w->first < to; ++w) {
    out[static_cast<std::size_t>(w->first - from)] = w->second;
  }
  if (!gap_fill_ || marks_.empty()) return out;
  // Interpolate ONLY windows flagged kLost, and only between two trusted
  // stored neighbors — extrapolation past the flow's known extent would
  // invent traffic that never existed.
  for (auto m = marks_.lower_bound(from); m != marks_.end() && m->first < to;
       ++m) {
    if (m->second != WindowConfidence::kLost) continue;
    const WindowId w = m->first;
    WindowVec::const_iterator left, right;
    if (!trusted_neighbors(windows, w, left, right)) continue;
    const double span = static_cast<double>(right->first - left->first);
    const double frac = static_cast<double>(w - left->first) / span;
    out[static_cast<std::size_t>(w - from)] =
        left->second + (right->second - left->second) * frac;
  }
  return out;
}

bool FlowCurveStore::is_lost(WindowId w) const {
  auto it = marks_.find(w);
  return it != marks_.end() && it->second == WindowConfidence::kLost;
}

bool FlowCurveStore::trusted_neighbors(const WindowVec& windows, WindowId w,
                                       WindowVec::const_iterator& left,
                                       WindowVec::const_iterator& right) const {
  right = std::upper_bound(windows.begin(), windows.end(), Window{w, 0.0},
                           kByWindow);
  while (right != windows.end() && is_lost(right->first)) ++right;
  if (right == windows.end()) return false;
  left = std::lower_bound(windows.begin(), right, Window{w, 0.0}, kByWindow);
  while (left != windows.begin()) {
    --left;
    if (!is_lost(left->first)) return true;
  }
  return false;
}

bool FlowCurveStore::gap_fillable(WindowId w) const {
  // kGapFilled is only honest when range() will interpolate the window for
  // every flow it could matter to: each flow whose stored extent spans `w`
  // must have a trusted neighbor on both sides, and at least one flow must
  // span it at all. Otherwise some read still serves the raw (partial or
  // zero) values and the label would overstate trust.
  bool any = false;
  for (const auto& [k, e] : flows_) {
    if (e.windows.empty() || e.windows.front().first > w ||
        e.windows.back().first < w) {
      continue;  // flow's stored curve does not span this window
    }
    WindowVec::const_iterator left, right;
    if (!trusted_neighbors(e.windows, w, left, right)) return false;
    any = true;
  }
  return any;
}

void FlowCurveStore::mark_windows(WindowId from, WindowId to,
                                  WindowConfidence conf) {
  if (conf == WindowConfidence::kCovered) return;  // the unmarked default
  // Every host's epoch covers the same windows, so the same run arrives
  // once per host: a repeat inside the last run at no worse class would
  // change no window.
  const bool repeat = from >= last_mark_.from && to <= last_mark_.to &&
                      conf <= last_mark_.conf;
  if (!repeat && from < to) {
    // One descent, then an ordered walk: existing marks upgrade in place
    // and missing windows insert right before the walk position.
    auto it = marks_.lower_bound(from);
    for (WindowId w = from; w < to; ++w) {
      if (it != marks_.end() && it->first == w) {
        if (conf > it->second) it->second = conf;  // upgrade only
        ++it;
      } else {
        marks_.emplace_hint(it, w, conf);
      }
    }
    last_mark_ = MarkRun{from, to, conf};
  }
  if (sink_ != nullptr && from < to) sink_->on_mark(from, to, conf);
}

WindowConfidence FlowCurveStore::confidence(WindowId w) const {
  auto it = marks_.find(w);
  if (it == marks_.end()) return WindowConfidence::kCovered;
  if (it->second == WindowConfidence::kLost && gap_fill_ && gap_fillable(w)) {
    return WindowConfidence::kGapFilled;
  }
  return it->second;
}

std::size_t FlowCurveStore::marked_count(WindowConfidence conf) const {
  std::size_t n = 0;
  for (const auto& [w, c] : marks_) {
    if (c == conf) ++n;
  }
  return n;
}

bool FlowCurveStore::extent(const FlowKey& flow, WindowId& first,
                            WindowId& last) const {
  auto it = flows_.find(flow.packed());
  if (it == flows_.end() || it->second.windows.empty()) return false;
  first = it->second.windows.front().first;
  last = it->second.windows.back().first;
  return true;
}

double FlowCurveStore::total_bytes(const FlowKey& flow) const {
  auto it = flows_.find(flow.packed());
  if (it == flows_.end()) return 0;
  double total = 0;
  for (const auto& [w, v] : it->second.windows) total += v;
  return total;
}

double FlowCurveStore::average_gbps(const FlowKey& flow) const {
  WindowId first = 0, last = 0;
  if (!extent(flow, first, last)) return 0;
  const Nanos span_ns = (last - first + 1) * window_length(window_shift_);
  return total_bytes(flow) * 8.0 / static_cast<double>(span_ns);
}

std::vector<FlowKey> FlowCurveStore::flows() const {
  std::vector<FlowKey> out;
  out.reserve(flows_.size());
  for (const auto& [k, e] : flows_) out.push_back(e.key);
  return out;
}

}  // namespace umon::analyzer
