// FlowCurveStore keeps each flow's curve as a window-sorted vector. These
// tests drive it and a test-local copy of the earlier per-window std::map
// version with the same seeded calls and require every observable result
// to be bit-identical, then pin the capacity-based memory gauge.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "analyzer/curve_store.hpp"

namespace umon::analyzer {
namespace {

using Windows = std::vector<std::pair<WindowId, double>>;

/// The std::map-backed curve store, kept only as the oracle for the flat
/// one. Same semantics: zeros skipped, equal windows summed in arrival
/// order, upgrade-only marks, gap-fill only between trusted neighbors.
namespace reference {

class MapCurveStore {
 public:
  void set_sink(CurveSink* sink) { sink_ = sink; }
  void set_gap_fill(bool on) { gap_fill_ = on; }

  void add(const FlowKey& flow, const CurveFragment& fragment) {
    Entry& e = flows_[flow.packed()];
    Windows spilled;
    for (std::size_t i = 0; i < fragment.bytes_per_window.size(); ++i) {
      const double v = fragment.bytes_per_window[i];
      if (v == 0) continue;
      const WindowId key = fragment.w0 + static_cast<WindowId>(i);
      auto [it, inserted] = e.windows.try_emplace(key, 0.0);
      it->second += v;
      if (inserted) ++total_windows_;
      spilled.emplace_back(key, v);
    }
    if (sink_ != nullptr && !spilled.empty()) sink_->on_sparse(flow, spilled);
  }

  void add_sparse(const FlowKey& flow, const Windows& windows,
                  WindowId window_offset) {
    if (windows.empty()) return;
    Entry& e = flows_[flow.packed()];
    Windows spilled;
    for (const auto& [w, v] : windows) {
      if (v == 0) continue;
      const WindowId key = w - window_offset;
      auto it = e.windows.lower_bound(key);
      if (it != e.windows.end() && it->first == key) {
        it->second += v;
      } else {
        e.windows.emplace_hint(it, key, v);
        ++total_windows_;
      }
      spilled.emplace_back(key, v);
    }
    if (sink_ != nullptr && !spilled.empty()) sink_->on_sparse(flow, spilled);
  }

  [[nodiscard]] std::vector<double> range(const FlowKey& flow, WindowId from,
                                          WindowId to) const {
    std::vector<double> out(
        static_cast<std::size_t>(to > from ? to - from : 0), 0.0);
    auto it = flows_.find(flow.packed());
    if (it == flows_.end()) return out;
    const auto& windows = it->second.windows;
    for (auto w = windows.lower_bound(from);
         w != windows.end() && w->first < to; ++w) {
      out[static_cast<std::size_t>(w->first - from)] = w->second;
    }
    if (!gap_fill_) return out;
    for (auto m = marks_.lower_bound(from); m != marks_.end() && m->first < to;
         ++m) {
      if (m->second != WindowConfidence::kLost) continue;
      const WindowId w = m->first;
      WindowMap::const_iterator left, right;
      if (!trusted_neighbors(windows, w, left, right)) continue;
      const double span = static_cast<double>(right->first - left->first);
      const double frac = static_cast<double>(w - left->first) / span;
      out[static_cast<std::size_t>(w - from)] =
          left->second + (right->second - left->second) * frac;
    }
    return out;
  }

  void mark_windows(WindowId from, WindowId to, WindowConfidence conf) {
    if (conf == WindowConfidence::kCovered) return;
    for (WindowId w = from; w < to; ++w) {
      auto [it, inserted] = marks_.try_emplace(w, conf);
      if (!inserted && conf > it->second) it->second = conf;
    }
    if (sink_ != nullptr && from < to) sink_->on_mark(from, to, conf);
  }

  [[nodiscard]] WindowConfidence confidence(WindowId w) const {
    auto it = marks_.find(w);
    if (it == marks_.end()) return WindowConfidence::kCovered;
    if (it->second == WindowConfidence::kLost && gap_fill_ &&
        gap_fillable(w)) {
      return WindowConfidence::kGapFilled;
    }
    return it->second;
  }

  [[nodiscard]] std::size_t marked_count(WindowConfidence conf) const {
    std::size_t n = 0;
    for (const auto& [w, c] : marks_) n += c == conf ? 1 : 0;
    return n;
  }

  bool extent(const FlowKey& flow, WindowId& first, WindowId& last) const {
    auto it = flows_.find(flow.packed());
    if (it == flows_.end() || it->second.windows.empty()) return false;
    first = it->second.windows.begin()->first;
    last = it->second.windows.rbegin()->first;
    return true;
  }

  [[nodiscard]] double total_bytes(const FlowKey& flow) const {
    auto it = flows_.find(flow.packed());
    if (it == flows_.end()) return 0;
    double total = 0;
    for (const auto& [w, v] : it->second.windows) total += v;
    return total;
  }

  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] std::size_t window_count() const { return total_windows_; }

 private:
  using WindowMap = std::map<WindowId, double>;
  struct Entry {
    WindowMap windows;
  };

  [[nodiscard]] bool is_lost(WindowId w) const {
    auto it = marks_.find(w);
    return it != marks_.end() && it->second == WindowConfidence::kLost;
  }

  bool trusted_neighbors(const WindowMap& windows, WindowId w,
                         WindowMap::const_iterator& left,
                         WindowMap::const_iterator& right) const {
    right = windows.upper_bound(w);
    while (right != windows.end() && is_lost(right->first)) ++right;
    if (right == windows.end()) return false;
    left = windows.lower_bound(w);
    while (left != windows.begin()) {
      --left;
      if (!is_lost(left->first)) return true;
    }
    return false;
  }

  [[nodiscard]] bool gap_fillable(WindowId w) const {
    bool any = false;
    for (const auto& [k, e] : flows_) {
      if (e.windows.empty() || e.windows.begin()->first > w ||
          e.windows.rbegin()->first < w) {
        continue;
      }
      WindowMap::const_iterator left, right;
      if (!trusted_neighbors(e.windows, w, left, right)) return false;
      any = true;
    }
    return any;
  }

  std::unordered_map<std::uint64_t, Entry> flows_;
  std::size_t total_windows_ = 0;
  std::map<WindowId, WindowConfidence> marks_;
  bool gap_fill_ = false;
  CurveSink* sink_ = nullptr;
};

}  // namespace reference

FlowKey flow(std::uint32_t id) {
  FlowKey f;
  f.src_ip = 0x0A000000u | id;
  f.dst_ip = 0x0A0000F8;
  f.src_port = static_cast<std::uint16_t>(3000 + id);
  f.dst_port = 4791;
  f.proto = 17;
  return f;
}

/// Records every write-through call, so the spill streams can be compared.
struct RecordingSink : CurveSink {
  struct Call {
    std::uint64_t flow = 0;
    Windows windows;
    WindowId from = 0, to = 0;
    WindowConfidence conf = WindowConfidence::kCovered;
  };
  std::vector<Call> calls;
  void on_sparse(const FlowKey& f,
                 std::span<const std::pair<WindowId, double>> w) override {
    calls.push_back({f.packed(), Windows(w.begin(), w.end()), 0, 0,
                     WindowConfidence::kCovered});
  }
  void on_mark(WindowId from, WindowId to, WindowConfidence conf) override {
    calls.push_back({0, {}, from, to, conf});
  }
};

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " at offset " << i;
  }
}

/// A value whose sums depend on addition order: magnitudes from 1e-3 to
/// 1e12, with roughly one zero in eight.
double draw_value(std::mt19937_64& rng) {
  if (rng() % 8 == 0) return 0.0;
  const double scale[] = {1e-3, 1.0, 1500.0, 1e7, 1e12};
  return static_cast<double>(rng() % 100000 + 1) / 7.0 * scale[rng() % 5];
}

/// Sorted windows with duplicates, zeros and gaps, starting at `base`.
Windows draw_sparse(std::mt19937_64& rng, WindowId base) {
  Windows out;
  WindowId w = base;
  const std::size_t n = rng() % 24 + 1;
  for (std::size_t i = 0; i < n; ++i) {
    w += static_cast<WindowId>(rng() % 3);  // 0 repeats the window
    out.emplace_back(w, draw_value(rng));
  }
  return out;
}

void expect_same(const FlowCurveStore& flat,
                 const reference::MapCurveStore& ref, std::uint32_t flows,
                 WindowId lo, WindowId hi) {
  ASSERT_EQ(flat.flow_count(), ref.flow_count());
  ASSERT_EQ(flat.window_count(), ref.window_count());
  for (std::uint32_t id = 0; id < flows; ++id) {
    const FlowKey f = flow(id);
    WindowId a0 = 0, a1 = 0, b0 = 0, b1 = 0;
    const bool ha = flat.extent(f, a0, a1);
    ASSERT_EQ(ha, ref.extent(f, b0, b1)) << "flow " << id;
    if (ha) {
      ASSERT_EQ(a0, b0);
      ASSERT_EQ(a1, b1);
    }
    ASSERT_EQ(bits(flat.total_bytes(f)), bits(ref.total_bytes(f)))
        << "flow " << id;
    expect_bit_identical(flat.range(f, lo, hi), ref.range(f, lo, hi),
                         "range");
    if (ha) {  // an inner slice exercises the lower_bound entry point
      expect_bit_identical(flat.range(f, a0 + 1, a1),
                           ref.range(f, a0 + 1, a1), "inner range");
    }
  }
  for (WindowId w = lo; w < hi; ++w) {
    ASSERT_EQ(flat.confidence(w), ref.confidence(w)) << "window " << w;
  }
  for (const WindowConfidence c :
       {WindowConfidence::kCovered, WindowConfidence::kRetransmitted,
        WindowConfidence::kGapFilled, WindowConfidence::kLost}) {
    ASSERT_EQ(flat.marked_count(c), ref.marked_count(c)) << to_string(c);
  }
}

TEST(CurveStoreEquivalence, FlatMatchesMapBitForBit) {
  constexpr std::uint32_t kFlows = 6;
  constexpr WindowId kSpan = 400;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    FlowCurveStore flat;
    reference::MapCurveStore ref;
    RecordingSink flat_sink, ref_sink;
    flat.set_sink(&flat_sink);
    ref.set_sink(&ref_sink);
    // Mostly in-order growth per flow with frequent late batches landing
    // inside, before, or on the edge of what is already stored.
    std::vector<WindowId> cursor(kFlows, 100);
    WindowId last_from = 0, last_to = 0;
    for (int step = 0; step < 600; ++step) {
      const auto id = static_cast<std::uint32_t>(rng() % kFlows);
      const FlowKey f = flow(id);
      switch (rng() % 10) {
        case 0: case 1: case 2: case 3: {  // in order
          const Windows w = draw_sparse(rng, cursor[id]);
          cursor[id] = w.back().first;
          flat.add_sparse(f, w);
          ref.add_sparse(f, w, 0);
          break;
        }
        case 4: case 5: {  // late: overlaps or precedes stored windows
          const WindowId base =
              static_cast<WindowId>(rng() % static_cast<std::uint64_t>(
                                                cursor[id] + 1));
          const Windows w = draw_sparse(rng, base);
          flat.add_sparse(f, w);
          ref.add_sparse(f, w, 0);
          break;
        }
        case 6: {  // clock-corrected batch
          const WindowId offset = static_cast<WindowId>(rng() % 16);
          const Windows w = draw_sparse(rng, cursor[id] + offset - 8);
          flat.add_sparse(f, w, offset);
          ref.add_sparse(f, w, offset);
          break;
        }
        case 7: {  // dense fragment with zeros
          CurveFragment frag;
          frag.w0 = static_cast<WindowId>(rng() % kSpan);
          frag.bytes_per_window.resize(rng() % 20);
          for (double& v : frag.bytes_per_window) v = draw_value(rng);
          ref.add(f, frag);
          flat.add(f, std::move(frag));
          break;
        }
        case 8: {  // confidence mark, every class; often a repeat of,
                   // or a run inside, the previous one (one per host)
          WindowId from = static_cast<WindowId>(rng() % kSpan);
          WindowId to = from + static_cast<WindowId>(rng() % 12);
          if (rng() % 2 == 0 && last_to > last_from) {
            from = last_from + static_cast<WindowId>(
                                   rng() % static_cast<std::uint64_t>(
                                               last_to - last_from));
            to = from + static_cast<WindowId>(rng() % 3 == 0 ? 0 : 1) +
                 static_cast<WindowId>(rng() % static_cast<std::uint64_t>(
                                                   last_to - from));
          }
          last_from = from;
          last_to = to;
          const auto conf = static_cast<WindowConfidence>(rng() % 4);
          flat.mark_windows(from, to, conf);
          ref.mark_windows(from, to, conf);
          break;
        }
        default: {  // gap-fill on and off
          const bool on = rng() % 2 == 0;
          flat.set_gap_fill(on);
          ref.set_gap_fill(on);
          break;
        }
      }
      if (step % 50 == 49) {
        expect_same(flat, ref, kFlows + 1, 0, kSpan + 40);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
    for (const bool on : {false, true}) {
      flat.set_gap_fill(on);
      ref.set_gap_fill(on);
      expect_same(flat, ref, kFlows + 1, 0, kSpan + 40);
      if (testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(flat_sink.calls.size(), ref_sink.calls.size());
    for (std::size_t i = 0; i < flat_sink.calls.size(); ++i) {
      const auto& a = flat_sink.calls[i];
      const auto& b = ref_sink.calls[i];
      ASSERT_EQ(a.flow, b.flow) << "sink call " << i;
      ASSERT_EQ(a.from, b.from);
      ASSERT_EQ(a.to, b.to);
      ASSERT_EQ(a.conf, b.conf);
      ASSERT_EQ(a.windows.size(), b.windows.size());
      for (std::size_t j = 0; j < a.windows.size(); ++j) {
        ASSERT_EQ(a.windows[j].first, b.windows[j].first);
        ASSERT_EQ(bits(a.windows[j].second), bits(b.windows[j].second));
      }
    }
  }
}

TEST(CurveStoreEquivalence, UnsortedBatchSumsInArrivalOrder) {
  // add_sparse documents sorted input, but an unsorted batch still sums
  // each window in arrival order, as the map did.
  FlowCurveStore flat;
  reference::MapCurveStore ref;
  const FlowKey f = flow(1);
  const Windows stored = {{10, 1e16}, {12, 3.0}};
  const Windows batch = {{12, 1.0}, {10, 1.0}, {11, 0.5}, {10, -1e16}};
  flat.add_sparse(f, stored);
  ref.add_sparse(f, stored, 0);
  flat.add_sparse(f, batch);
  ref.add_sparse(f, batch, 0);
  expect_same(flat, ref, 2, 0, 20);
}

TEST(CurveStoreMemory, GaugeTracksVectorCapacity) {
  constexpr std::size_t E = FlowCurveStore::kEntryBytes;
  constexpr std::size_t W = FlowCurveStore::kWindowBytes;
  FlowCurveStore store;
  EXPECT_EQ(store.memory_bytes(), 0u);

  Windows first;
  for (WindowId w = 0; w < 100; ++w) first.emplace_back(w, 1.0);
  store.add_sparse(flow(1), first);  // a fresh flow reserves exactly
  EXPECT_EQ(store.memory_bytes(), E + 100 * W);

  Windows more;
  for (WindowId w = 100; w < 110; ++w) more.emplace_back(w, 1.0);
  store.add_sparse(flow(1), more);  // growth doubles the capacity
  EXPECT_EQ(store.memory_bytes(), E + 200 * W);

  store.add_sparse(flow(2), Windows{{5, 2.0}, {6, 0.0}, {7, 2.0}});
  EXPECT_EQ(store.memory_bytes(), 2 * E + 202 * W);  // zeros reserve none

  // A late batch merged into spare capacity, including a repeated window
  // that sums in place, costs nothing more.
  store.add_sparse(flow(1), Windows{{3, 1.0}, {50, 1.0}, {200, 1.0}});
  EXPECT_EQ(store.window_count(), 100u + 10u + 2u + 1u);
  EXPECT_EQ(store.memory_bytes(), 2 * E + 202 * W);

  // A flow seen only with zeros is an entry with no window capacity.
  store.add_sparse(flow(3), Windows{{1, 0.0}});
  EXPECT_EQ(store.memory_bytes(), 3 * E + 202 * W);
}

}  // namespace
}  // namespace umon::analyzer
