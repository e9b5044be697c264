#include "sketch/serialize.hpp"

#include <cstring>
#include <type_traits>

#include "wavelet/haar.hpp"

namespace umon::sketch {
namespace {

constexpr std::uint16_t kMagic = 0xA10E;
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kFlagHasFlow = 0x01;
/// Upper bounds that a well-formed report never exceeds; decoding rejects
/// anything larger so a corrupt length cannot trigger a giant allocation.
constexpr std::uint32_t kMaxCoeffs = 1u << 20;
/// Hard cap on the windows a single report may claim to cover (the default
/// roll-over period is 2^16 windows; 2^24 leaves two orders of headroom).
constexpr std::uint32_t kMaxLength = 1u << 24;
constexpr int kMaxLevels = 30;

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire fields are raw little-endian bytes");
  const std::size_t pos = out.size();
  out.resize(pos + sizeof(T));
  std::memcpy(out.data() + pos, &value, sizeof(T));
}

template <typename T>
bool get(std::span<const std::uint8_t> in, std::size_t& offset, T& value) {
  if (offset + sizeof(T) > in.size()) return false;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

/// Everything in a report header except the coefficient payload.
// umon-sca: wire-struct
struct Header {
  std::uint8_t version = kVersion;
  std::uint8_t row = 0;
  std::uint32_t col = 0;
  std::uint32_t seq = 0;
  bool has_flow = false;
  FlowKey flow;
  std::int64_t w0 = 0;
  std::uint32_t length = 0;
  std::uint8_t levels = 0;
  std::uint32_t approx_count = 0;
  std::uint32_t detail_count = 0;
};

// The decoder memcpy's individual fields out of the byte stream into this
// staging struct; it must stay a flat aggregate with no hidden state.
static_assert(std::is_trivially_copyable_v<Header>);
static_assert(std::is_standard_layout_v<Header>);

/// Parse and validate a version-2 header; any other version is rejected.
/// The consistency check against length/levels mirrors what
/// wavelet::reconstruct assumes, so a report that passes here can be
/// reconstructed without out-of-bounds reads.
bool read_header(std::span<const std::uint8_t> in, std::size_t& offset,
                 Header& h) {
  std::uint16_t magic;
  if (!get(in, offset, magic) || magic != kMagic) return false;
  if (!get(in, offset, h.version) || h.version != kVersion) return false;
  std::uint8_t flags;
  if (!get(in, offset, flags)) return false;
  if (flags & ~kFlagHasFlow) return false;  // unknown flags: reject
  h.has_flow = flags & kFlagHasFlow;
  if (!get(in, offset, h.row) || !get(in, offset, h.col) ||
      !get(in, offset, h.seq)) {
    return false;
  }
  if (h.has_flow) {
    if (!get(in, offset, h.flow.src_ip) || !get(in, offset, h.flow.dst_ip) ||
        !get(in, offset, h.flow.src_port) ||
        !get(in, offset, h.flow.dst_port) || !get(in, offset, h.flow.proto)) {
      return false;
    }
  }
  if (!get(in, offset, h.w0) || !get(in, offset, h.length) ||
      !get(in, offset, h.levels) || !get(in, offset, h.approx_count) ||
      !get(in, offset, h.detail_count)) {
    return false;
  }
  if (h.approx_count > kMaxCoeffs || h.detail_count > kMaxCoeffs) return false;
  if (h.length > kMaxLength || h.levels > kMaxLevels) return false;
  if (h.length > 0) {
    // reconstruct() reads padded >> eff approximations unconditionally; a
    // header claiming fewer is adversarial, not just lossy.
    const std::uint32_t padded = wavelet::next_pow2(h.length);
    const int eff = wavelet::effective_levels(padded, h.levels);
    if (h.approx_count < (padded >> eff)) return false;
    if (h.approx_count > padded) return false;
  }
  return true;
}

std::size_t encode_with_seq(const TaggedReport& report, std::uint32_t seq,
                            std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  put(out, kMagic);
  put(out, kVersion);
  put(out, static_cast<std::uint8_t>(report.flow ? kFlagHasFlow : 0));
  put(out, static_cast<std::uint8_t>(report.row));
  put(out, static_cast<std::uint32_t>(report.col));
  put(out, seq);
  if (report.flow) {
    put(out, report.flow->src_ip);
    put(out, report.flow->dst_ip);
    put(out, report.flow->src_port);
    put(out, report.flow->dst_port);
    put(out, report.flow->proto);
  }
  put(out, static_cast<std::int64_t>(report.report.w0));
  put(out, report.report.length);
  put(out, static_cast<std::uint8_t>(report.report.levels));
  put(out, static_cast<std::uint32_t>(report.report.approx.size()));
  put(out, static_cast<std::uint32_t>(report.report.details.size()));
  for (Count a : report.report.approx) {
    put(out, static_cast<std::int32_t>(a));
  }
  for (const auto& d : report.report.details) {
    put(out, d.level);
    // 24-bit index: the maximum window offset (2^16 default) fits easily.
    put(out, static_cast<std::uint8_t>(d.index & 0xFF));
    put(out, static_cast<std::uint16_t>(d.index >> 8));
    put(out, static_cast<std::int32_t>(d.value));
  }
  return out.size() - start;
}

}  // namespace

std::size_t encode_report(const TaggedReport& report,
                          std::vector<std::uint8_t>& out) {
  return encode_with_seq(report, report.seq, out);
}

std::vector<std::uint8_t> encode_batch(
    std::span<const TaggedReport> reports) {
  std::vector<std::uint8_t> out;
  put(out, static_cast<std::uint32_t>(reports.size()));
  for (const auto& r : reports) encode_report(r, out);
  return out;
}

std::vector<std::uint8_t> encode_batch(std::span<const TaggedReport> reports,
                                       std::uint32_t first_seq) {
  std::vector<std::uint8_t> out;
  put(out, static_cast<std::uint32_t>(reports.size()));
  std::uint32_t seq = first_seq;
  for (const auto& r : reports) encode_with_seq(r, seq++, out);
  return out;
}

std::optional<TaggedReport> decode_report(std::span<const std::uint8_t> in,
                                          std::size_t& offset) {
  Header h;
  if (!read_header(in, offset, h)) return std::nullopt;
  // Reject a declared payload that extends past the buffer *before* acting
  // on the counts: the per-coefficient get() loop would only notice the
  // truncation after reserving approx_count slots, and a frame truncated at
  // exactly the header boundary must not decode as an empty-but-valid
  // report. (offset <= in.size() holds after read_header, so the
  // subtraction cannot wrap.)
  const std::size_t payload = std::size_t{h.approx_count} * 4 +
                              std::size_t{h.detail_count} * 8;
  if (in.size() - offset < payload) return std::nullopt;
  TaggedReport out;
  out.row = h.row;
  out.col = h.col;
  out.seq = h.seq;
  if (h.has_flow) out.flow = h.flow;
  out.report.w0 = h.w0;
  out.report.length = h.length;
  out.report.levels = h.levels;
  out.report.approx.reserve(h.approx_count);
  for (std::uint32_t i = 0; i < h.approx_count; ++i) {
    std::int32_t a;
    if (!get(in, offset, a)) return std::nullopt;
    out.report.approx.push_back(a);
  }
  out.report.details.reserve(h.detail_count);
  for (std::uint32_t i = 0; i < h.detail_count; ++i) {
    std::uint8_t level, idx_lo;
    std::uint16_t idx_hi;
    std::int32_t value;
    if (!get(in, offset, level) || !get(in, offset, idx_lo) ||
        !get(in, offset, idx_hi) || !get(in, offset, value)) {
      return std::nullopt;
    }
    out.report.details.push_back(wavelet::DetailCoeff{
        level, static_cast<std::uint32_t>(idx_lo) |
                   (static_cast<std::uint32_t>(idx_hi) << 8),
        value});
  }
  return out;
}

std::optional<ReportFrame> scan_report(std::span<const std::uint8_t> in,
                                       std::size_t& offset) {
  ReportFrame frame;
  frame.begin = offset;
  Header h;
  if (!read_header(in, offset, h)) return std::nullopt;
  const std::size_t payload = std::size_t{h.approx_count} * 4 +
                              std::size_t{h.detail_count} * 8;
  if (offset + payload > in.size()) return std::nullopt;
  offset += payload;
  frame.end = offset;
  frame.seq = h.seq;
  frame.has_flow = h.has_flow;
  frame.flow = h.flow;
  frame.row = h.row;
  frame.col = h.col;
  return frame;
}

std::optional<std::vector<TaggedReport>> decode_batch(
    std::span<const std::uint8_t> in) {
  std::size_t offset = 0;
  std::uint32_t count;
  if (!get(in, offset, count)) return std::nullopt;
  if (count > kMaxCoeffs) return std::nullopt;
  std::vector<TaggedReport> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto r = decode_report(in, offset);
    if (!r) return std::nullopt;
    out.push_back(std::move(*r));
  }
  if (offset != in.size()) return std::nullopt;  // trailing garbage
  return out;
}

}  // namespace umon::sketch
