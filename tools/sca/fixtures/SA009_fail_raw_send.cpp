// SA009 fixture: a driver sending straight on the upload channel bypasses
// the reliable uplink — no CRC framing, no retransmit buffering, and the
// lost payload never surfaces as a confidence flag.
#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/upload_channel.hpp"

void drive(umon::netsim::UploadChannel& channel,
           std::vector<std::uint8_t> payload) {
  (void)channel.send(0, 1, std::move(payload), 0);
}
