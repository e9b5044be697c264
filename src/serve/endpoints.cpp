#include "serve/endpoints.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/prof.hpp"
#include "telemetry/export.hpp"

namespace umon::serve {
namespace {

constexpr const char* kJson = "application/json";
constexpr const char* kNdjson = "application/x-ndjson";
constexpr const char* kPromText = "text/plain; version=0.0.4";

[[nodiscard]] HttpResponse err(int status, const std::string& what) {
  return HttpResponse{status, kJson, "{\"error\":\"" + what + "\"}\n", false,
                      {}};
}

[[nodiscard]] bool parse_u32(const std::string& s, std::uint32_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v > 0xFFFFFFFFull) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

[[nodiscard]] bool parse_f64(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Same grammar as umon_query --flow: SRC:SPORT:DST:DPORT[:PROTO].
[[nodiscard]] bool parse_flow(const std::string& text, FlowKey& out) {
  unsigned src = 0, sport = 0, dst = 0, dport = 0, proto = 6;
  const int n = std::sscanf(text.c_str(), "%u:%u:%u:%u:%u", &src, &sport,
                            &dst, &dport, &proto);
  if (n < 4 || sport > 0xFFFF || dport > 0xFFFF || proto > 0xFF) return false;
  out = FlowKey{src, dst, static_cast<std::uint16_t>(sport),
                static_cast<std::uint16_t>(dport),
                static_cast<std::uint8_t>(proto)};
  return true;
}

}  // namespace

Endpoints::Endpoints(Server& server, Services services)
    : server_(server), svc_(std::move(services)) {
  if (svc_.store != nullptr) engine_.emplace(*svc_.store);
  cache_hits_ = server_.registry().counter(
      "umon_serve_query_cache_hits_total", {},
      "serialized /api/v1/query responses served from the LRU");
  cache_misses_ = server_.registry().counter(
      "umon_serve_query_cache_misses_total", {},
      "/api/v1/query responses that ran the engine and serializer");
  shed_total_ = server_.registry().counter(
      "umon_serve_shed_total", {},
      "uncached /api/v1/query requests refused with 503 + Retry-After by "
      "the admission controller");
  server_.set_dispatch([this](const HttpRequest& req, const LoadHint& hint) {
    return route(req, hint);
  });
}

Routed Endpoints::route(const HttpRequest& req, const LoadHint& hint) {
  const bool is_get = req.method == "GET" || req.method == "HEAD";
  const std::string& p = req.path;

  if (p == "/api/v1/shutdown") {
    if (!is_get && req.method != "POST") {
      return Routed{err(405, "use GET or POST"), "/api/v1/shutdown"};
    }
    server_.request_shutdown();
    return Routed{HttpResponse{200, kJson, "{\"ok\":true}\n", false, {}},
                  "/api/v1/shutdown"};
  }

  // Everything below is read-only.
  if (p == "/" || p == "/metrics" || p == "/health" || p == "/health/alarms" ||
      p == "/dashboard" || p == "/prof" || p == "/lineage" ||
      p == "/api/v1/query" || p == "/api/v1/stream" || p == "/api/v1/status" ||
      p.rfind("/lineage/", 0) == 0) {
    if (!is_get) return Routed{err(405, "read-only endpoint"), p};
  }

  if (p == "/") return Routed{get_index(), "/"};
  if (p == "/metrics") return Routed{get_metrics(), "/metrics"};
  if (p == "/health") {
    return Routed{get_snapshot_slot("health_jsonl", kNdjson,
                                    "health monitoring not enabled"),
                  "/health"};
  }
  if (p == "/health/alarms") {
    return Routed{get_snapshot_slot("health_alarms", kNdjson,
                                    "health monitoring not enabled"),
                  "/health/alarms"};
  }
  if (p == "/dashboard") {
    HttpResponse r = get_snapshot_slot("health_html", "text/html",
                                       "health monitoring not enabled");
    return Routed{std::move(r), "/dashboard"};
  }
  if (p == "/prof") return Routed{get_prof(), "/prof"};
  if (p == "/lineage") return Routed{get_lineage_all(), "/lineage"};
  if (p.rfind("/lineage/", 0) == 0) {
    bool bad_path = false;
    HttpResponse r = get_lineage_one(p, bad_path);
    return Routed{std::move(r), "/lineage/{host}/{epoch}"};
  }
  if (p == "/api/v1/query") {
    return Routed{get_query(req, hint), "/api/v1/query"};
  }
  if (p == "/api/v1/status") {
    return Routed{get_snapshot_slot("status", kJson, "status not published"),
                  "/api/v1/status"};
  }
  if (p == "/api/v1/stream") {
    HttpResponse r;
    r.status = 200;
    r.sse = true;
    r.body = server_.snapshot("status");  // initial `hello` event payload
    return Routed{std::move(r), "/api/v1/stream"};
  }
  return Routed{err(404, "no such endpoint"), ""};
}

HttpResponse Endpoints::get_index() {
  static const char* kIndex =
      "{\"endpoints\":[\"/metrics\",\"/health\",\"/health/alarms\","
      "\"/dashboard\",\"/prof\",\"/lineage\",\"/lineage/{host}/{epoch}\","
      "\"/api/v1/query\",\"/api/v1/stream\",\"/api/v1/status\","
      "\"/api/v1/shutdown\"]}\n";
  return HttpResponse{200, kJson, kIndex, false, {}};
}

HttpResponse Endpoints::get_metrics() {
  std::vector<const telemetry::MetricRegistry*> regs = svc_.registries;
  regs.push_back(&server_.registry());
  std::ostringstream oss;
  telemetry::write_prometheus(
      oss, std::span<const telemetry::MetricRegistry* const>(regs));
  return HttpResponse{200, kPromText, oss.str(), false, {}};
}

HttpResponse Endpoints::get_snapshot_slot(const std::string& key,
                                          const char* content_type,
                                          const char* missing_error) {
  if (!server_.has_snapshot(key)) return err(404, missing_error);
  return HttpResponse{200, content_type, server_.snapshot(key), false, {}};
}

HttpResponse Endpoints::get_prof() {
  std::ostringstream oss;
  obs::prof_write_folded(oss);
  return HttpResponse{200, "text/plain", oss.str(), false, {}};
}

HttpResponse Endpoints::get_lineage_all() {
  if (svc_.lineage == nullptr) return err(404, "lineage not enabled");
  std::ostringstream oss;
  svc_.lineage->write_audit_jsonl(oss);
  return HttpResponse{200, kNdjson, oss.str(), false, {}};
}

HttpResponse Endpoints::get_lineage_one(const std::string& path,
                                        bool& bad_path) {
  bad_path = false;
  if (svc_.lineage == nullptr) return err(404, "lineage not enabled");
  // path = /lineage/{host}/{epoch}
  const std::size_t h0 = std::string("/lineage/").size();
  const std::size_t slash = path.find('/', h0);
  if (slash == std::string::npos || slash + 1 >= path.size()) {
    bad_path = true;
    return err(400, "want /lineage/{host}/{epoch}");
  }
  std::uint32_t host = 0, epoch = 0;
  if (!parse_u32(path.substr(h0, slash - h0), host) ||
      !parse_u32(path.substr(slash + 1), epoch)) {
    bad_path = true;
    return err(400, "host and epoch must be unsigned integers");
  }
  const auto rec = svc_.lineage->find(host, epoch);
  if (!rec.has_value()) return err(404, "no lineage for that (host, epoch)");
  std::ostringstream oss;
  obs::LineageTracker::write_audit_record(oss, *rec);
  return HttpResponse{200, kNdjson, oss.str(), false, {}};
}

HttpResponse Endpoints::shed_overloaded() {
  shed_total_->inc();
  HttpResponse r = err(503, "overloaded; uncached query shed, retry shortly");
  r.extra_headers = "Retry-After: 1\r\n";
  return r;
}

HttpResponse Endpoints::get_query(const HttpRequest& req,
                                  const LoadHint& hint) {
  // --- parameter validation (umon_query exit 2 <=> HTTP 400) --------------
  // Runs before the store check to mirror umon_query, where usage errors
  // are reported before the store is opened.
  std::uint32_t resolution = 8;
  store::GroupOp op = store::GroupOp::kSum;
  std::optional<double> from_us, to_us;
  std::optional<std::uint32_t> host;
  std::vector<FlowKey> flows;
  bool list_flows = false;
  bool csv = false;
  for (const auto& [k, v] : req.params) {
    if (k == "from_us") {
      double d = 0;
      if (!parse_f64(v, d)) return err(400, "bad from_us");
      from_us = d;
    } else if (k == "to_us") {
      double d = 0;
      if (!parse_f64(v, d)) return err(400, "bad to_us");
      to_us = d;
    } else if (k == "resolution") {
      if (!parse_u32(v, resolution) || resolution == 0) {
        return err(400, "resolution must be a positive integer");
      }
    } else if (k == "op") {
      const auto parsed = store::parse_group_op(v);
      if (!parsed) return err(400, "op must be sum|avg|max|p99");
      op = *parsed;
    } else if (k == "host") {
      std::uint32_t h = 0;
      if (!parse_u32(v, h)) return err(400, "bad host");
      host = h;
    } else if (k == "flow") {
      FlowKey f;
      if (!parse_flow(v, f)) {
        return err(400, "bad flow (want SRC:SPORT:DST:DPORT[:PROTO])");
      }
      flows.push_back(f);
    } else if (k == "list") {
      if (v != "flows") return err(400, "list supports only list=flows");
      list_flows = true;
    } else if (k == "format") {
      if (v == "csv") {
        csv = true;
      } else if (v != "json") {
        return err(400, "format must be json or csv");
      }
    } else {
      return err(400, "unknown parameter: " + k);
    }
  }
  const char* content_type = csv ? "text/csv" : kJson;

  if (svc_.store == nullptr || !engine_.has_value()) {
    return err(503, "no store attached (run with --store-dir)");
  }

  // The head reads the store's flow count and last seal (O(1) each, miss
  // path only): a cache hit touches nothing beyond the fingerprint and the
  // generation counter.
  const auto live_head = [this]() {
    store::StoreHead head = store::make_head(
        svc_.store_dir, svc_.store_rinfo, svc_.store->flow_count());
    head.last_sealed_epoch = svc_.store->last_sealed_epoch();
    return head;
  };

  if (list_flows) {
    // The flow listing is never cached and walks every flow's chunks —
    // always expensive, so it sheds under load.
    if (hint.shed_expensive) return shed_overloaded();
    const auto extents = store::flow_extents(*svc_.store);
    std::ostringstream oss;
    if (csv) {
      store::write_flow_list_csv(oss, extents);
    } else {
      store::write_flow_list_json(oss, live_head(), extents);
    }
    return HttpResponse{200, content_type, oss.str(), false, {}};
  }

  store::Query q;
  if (!from_us || !to_us) {
    // The default range reads the store before the cache key can even be
    // computed, so under load these shed outright; explicit-range queries
    // below can still be answered from the cache.
    if (hint.shed_expensive) return shed_overloaded();
    // Default range = the store's curve extent, the union of every flow's
    // extent (the umon_query behavior).
    WindowId first = 0, last = 0;
    if (!svc_.store->curve_extent(first, last)) {
      std::ostringstream oss;
      if (csv) {
        store::write_query_csv(oss, store::QueryResult{});
      } else {
        store::write_empty_json(oss, live_head());
      }
      return HttpResponse{200, content_type, oss.str(), false, {}};
    }
    q.from = first;
    q.to = last + 1;
  }
  if (from_us) q.from = window_of(static_cast<Nanos>(*from_us * 1e3));
  if (to_us) q.to = window_of(static_cast<Nanos>(*to_us * 1e3)) + 1;
  q.resolution = resolution;
  q.op = op;
  q.flows = std::move(flows);
  q.src_host = host;

  // Serialized-response cache, the only query cache: keyed on the query
  // fingerprint, the store generation and the output format. A generation
  // bump (seal/roll/compaction/quarantine) simply stops matching. Appends
  // do not bump it, so a body that read the unsealed tail can go stale
  // within one generation.
  const CacheKey key{store::QueryEngine::fingerprint(q),
                     svc_.store->generation(),
                     static_cast<std::uint8_t>(csv ? 1 : 0)};
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    cache_hits_->inc();
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return HttpResponse{200, content_type, it->second.body, false, {}};
  }
  // Cost-based admission: a miss means engine + serializer work under
  // load — refuse it and tell the client when to come back.
  if (hint.shed_expensive) return shed_overloaded();
  cache_misses_->inc();

  if (from_us && to_us) {
    // umon_query parity: a store with no curve data answers with the empty
    // head even when the range is explicit. The default-range branch above
    // already proved an extent exists, so only this path re-checks.
    WindowId first = 0, last = 0;
    if (!svc_.store->curve_extent(first, last)) {
      std::ostringstream oss;
      if (csv) {
        store::write_query_csv(oss, store::QueryResult{});
      } else {
        store::write_empty_json(oss, live_head());
      }
      return HttpResponse{200, content_type, oss.str(), false, {}};
    }
  }

  const store::QueryResult r = engine_->run(q);
  std::ostringstream oss;
  if (csv) {
    store::write_query_csv(oss, r);
  } else {
    store::write_query_json(oss, live_head(), r);
  }
  std::string body = oss.str();
  lru_.push_front(key);
  cache_[key] = CacheEntry{body, lru_.begin()};
  while (cache_.size() > kResponseCacheEntries && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  return HttpResponse{200, content_type, std::move(body), false, {}};
}

}  // namespace umon::serve
