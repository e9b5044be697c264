#include "store/query_io.hpp"

#include <cstdio>
#include <ostream>
#include <vector>

namespace umon::store {
namespace {

/// printf into an ostream: the formatting contract here is the original
/// umon_query printf conversions, so snprintf is the source of truth.
/// Falls back to a heap buffer for oversized rows (long store paths).
template <typename... Args>
void fmt(std::ostream& os, const char* f, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, f, args...);
  if (n < 0) return;
  if (static_cast<std::size_t>(n) < sizeof buf) {
    os.write(buf, n);
    return;
  }
  std::vector<char> big(static_cast<std::size_t>(n) + 1);
  std::snprintf(big.data(), big.size(), f, args...);
  os.write(big.data(), n);
}

}  // namespace

StoreHead make_head(const std::string& dir, const RecoveryInfo& info,
                    std::size_t flow_count) {
  StoreHead head;
  head.store_dir = dir;
  head.segments = info.segments_opened;
  head.flows = flow_count;
  head.torn_tails = info.torn_tails_truncated;
  head.last_sealed_epoch = info.last_sealed_epoch;
  return head;
}

std::vector<FlowExtentRow> flow_extents(Store& store) {
  std::vector<FlowExtentRow> rows;
  for (const FlowKey& f : store.flows()) {
    FlowExtentRow row;
    row.flow = f;
    if (!store.flow_extent(f, row.first, row.last)) continue;
    rows.push_back(row);
  }
  return rows;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void write_head_json(std::ostream& os, const StoreHead& head) {
  fmt(os,
      "{\"store_dir\":\"%s\",\"segments\":%zu,\"flows\":%zu,"
      "\"torn_tails\":%zu,\"last_sealed_epoch\":%s",
      json_escape(head.store_dir).c_str(), head.segments, head.flows,
      head.torn_tails,
      head.last_sealed_epoch ? std::to_string(*head.last_sealed_epoch).c_str()
                             : "null");
}

void write_query_json(std::ostream& os, const StoreHead& head,
                      const QueryResult& r) {
  write_head_json(os, head);
  const double bucket_us =
      static_cast<double>(window_length()) * r.resolution / 1e3;
  fmt(os,
      ",\"op\":\"%s\",\"from_window\":%lld,\"to_window\":%lld,"
      "\"resolution\":%u,\"bucket_us\":%.1f,\"flows_matched\":%zu,"
      "\"series\":[",
      to_string(r.op), static_cast<long long>(r.from),
      static_cast<long long>(r.to), r.resolution, bucket_us, r.flows_matched);
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const WindowId w = r.from + static_cast<WindowId>(i) * r.resolution;
    fmt(os, "%s{\"t_us\":%.1f,\"bytes\":%.1f,\"confidence\":\"%s\"}",
        i == 0 ? "" : ",", static_cast<double>(window_start(w)) / 1e3,
        r.series[i], analyzer::to_string(r.confidence[i]));
  }
  os << "]}\n";
}

void write_empty_json(std::ostream& os, const StoreHead& head) {
  write_head_json(os, head);
  os << ",\"series\":[]}\n";
}

void write_flow_list_json(std::ostream& os, const StoreHead& head,
                          const std::vector<FlowExtentRow>& rows) {
  write_head_json(os, head);
  os << ",\"flow_list\":[";
  bool first_row = true;
  for (const FlowExtentRow& row : rows) {
    fmt(os,
        "%s{\"flow\":\"%s\",\"first_window\":%lld,"
        "\"last_window\":%lld,\"from_us\":%.1f,\"to_us\":%.1f}",
        first_row ? "" : ",", json_escape(row.flow.to_string()).c_str(),
        static_cast<long long>(row.first), static_cast<long long>(row.last),
        static_cast<double>(window_start(row.first)) / 1e3,
        static_cast<double>(window_start(row.last + 1)) / 1e3);
    first_row = false;
  }
  os << "]}\n";
}

void write_query_csv(std::ostream& os, const QueryResult& r) {
  os << "t_us,bytes,confidence\n";
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const WindowId w = r.from + static_cast<WindowId>(i) * r.resolution;
    fmt(os, "%.1f,%.1f,%s\n", static_cast<double>(window_start(w)) / 1e3,
        r.series[i], analyzer::to_string(r.confidence[i]));
  }
}

void write_flow_list_csv(std::ostream& os,
                         const std::vector<FlowExtentRow>& rows) {
  os << "flow,first_window,last_window,from_us,to_us\n";
  for (const FlowExtentRow& row : rows) {
    fmt(os, "%s,%lld,%lld,%.1f,%.1f\n", row.flow.to_string().c_str(),
        static_cast<long long>(row.first), static_cast<long long>(row.last),
        static_cast<double>(window_start(row.first)) / 1e3,
        static_cast<double>(window_start(row.last + 1)) / 1e3);
  }
}

}  // namespace umon::store
