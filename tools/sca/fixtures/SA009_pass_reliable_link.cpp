// SA009 fixture: payloads routed through the reliable uplink wrapper (the
// sanctioned path — passthrough mode preserves legacy behavior), plus one
// deliberately raw send under an explicit suppression, the pattern loopback
// harnesses that measure the bare channel use.
#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/upload_channel.hpp"
#include "resilience/reliable.hpp"

void drive(umon::resilience::ReliableLink& link,
           umon::netsim::UploadChannel& raw_channel,
           std::vector<std::uint8_t> payload) {
  link.send(0, 1, std::move(payload), 0);

  std::vector<std::uint8_t> probe;
  // umon-sca: allow(SA009) loopback harness measures the bare channel
  (void)raw_channel.send(0, 1, std::move(probe), 0);
}
