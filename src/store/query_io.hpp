// umon::store — shared JSON/CSV serialization for query results.
//
// One serializer feeds both read surfaces: the `umon_query` CLI (`--json`,
// `--csv`) and the HTTP `/api/v1/query` endpoint in umon::serve. Extracting
// it from umon_query's original printf path means the two cannot drift: a
// byte-for-byte diff of a CLI run and an HTTP response body over the same
// store and parameters is empty.
//
// All JSON output opens with a store-metadata head in a fixed, documented
// key order (store_dir, segments, flows, torn_tails, last_sealed_epoch) so
// scripts may diff responses byte-for-byte across same-seed runs. Numeric
// formatting is pinned to the original printf conversions (%.1f for times
// and byte totals) — do not "clean up" to iostream defaults, that changes
// the bytes.
//
// Outcome mapping (documented here because both surfaces implement it):
//
//   condition              umon_query exit   /api/v1/query status
//   ---------------------  ----------------  --------------------
//   query ran (any rows)   0                 200 OK
//   store open/read error  1                 503 Service Unavailable
//   usage / bad params     2                 400 Bad Request
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "store/query.hpp"
#include "store/store.hpp"

namespace umon::store {

/// Store-level metadata echoed at the head of every serialized response.
struct StoreHead {
  std::string store_dir;
  std::size_t segments = 0;
  std::size_t flows = 0;
  std::size_t torn_tails = 0;
  std::optional<std::uint32_t> last_sealed_epoch;
};

/// Per-flow extent row for `--list-flows` / `?list=flows`.
struct FlowExtentRow {
  FlowKey flow{};
  WindowId first = 0;
  WindowId last = 0;
};

[[nodiscard]] StoreHead make_head(const std::string& dir,
                                  const RecoveryInfo& info,
                                  std::size_t flow_count);

/// Every stored flow with a non-empty extent, in the store's flow order.
[[nodiscard]] std::vector<FlowExtentRow> flow_extents(Store& store);

/// Minimal JSON string escape (quotes, backslashes, control bytes).
[[nodiscard]] std::string json_escape(const std::string& s);

/// `{"store_dir":...,"last_sealed_epoch":...` — opens the object, leaves it
/// unterminated so a body writer can append. Shared by all JSON writers.
void write_head_json(std::ostream& os, const StoreHead& head);

/// Full JSON object for a grouped query result (head + op/range/series),
/// terminated with `}` and a trailing newline.
void write_query_json(std::ostream& os, const StoreHead& head,
                      const QueryResult& r);

/// Head plus an empty series (`,"series":[]}`): the store holds no data.
void write_empty_json(std::ostream& os, const StoreHead& head);

/// Head plus `,"flow_list":[...]}` — one row per stored flow extent.
void write_flow_list_json(std::ostream& os, const StoreHead& head,
                          const std::vector<FlowExtentRow>& rows);

/// CSV: `t_us,bytes,confidence` header then one row per bucket.
void write_query_csv(std::ostream& os, const QueryResult& r);

/// CSV: `flow,first_window,last_window,from_us,to_us` header then rows.
void write_flow_list_csv(std::ostream& os,
                         const std::vector<FlowExtentRow>& rows);

}  // namespace umon::store
