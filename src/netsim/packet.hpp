// The in-flight packet representation inside the simulator.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/types.hpp"

namespace umon::netsim {

enum class PacketKind : std::uint8_t {
  kData,  ///< data segment (RoCEv2 or TCP-like)
  kCnp,   ///< Congestion Notification Packet (DCQCN NP -> RP)
  kAck,   ///< TCP-like ACK carrying the DCTCP ECN echo
};

// umon-sca: wire-struct
struct SimPacket {
  FlowKey flow;
  PacketKind kind = PacketKind::kData;
  std::uint32_t psn = 0;
  std::uint32_t size = 0;        ///< wire bytes (header + payload)
  Ecn ecn = Ecn::kEct0;
  int src_host = -1;
  int dst_host = -1;
  Nanos sent_at = 0;             ///< NIC transmit timestamp
  bool wants_ack = false;        ///< window transport: receiver must ACK
  std::uint32_t acked_bytes = 0; ///< kAck: payload bytes acknowledged
};

// SimPackets cross queues and links by value millions of times per run; the
// copy must stay trivial and the footprint deliberate (queue memory model).
static_assert(std::is_trivially_copyable_v<SimPacket>);
static_assert(std::is_standard_layout_v<SimPacket>);
static_assert(sizeof(SimPacket) <= 64, "keep one packet within a cache line");

/// RoCEv2-ish framing constants.
constexpr std::uint32_t kMtuBytes = 1000;     ///< payload per data packet
constexpr std::uint32_t kHeaderBytes = 48;    ///< Eth+IP+UDP+BTH overhead
constexpr std::uint32_t kCnpBytes = 64;
constexpr std::uint32_t kAckBytes = 64;

}  // namespace umon::netsim
