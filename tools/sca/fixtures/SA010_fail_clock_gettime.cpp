// umon-sca-fixture: path=src/collector/stamp.cpp
// A shard worker reaching for the raw OS clock on its decode path.
#include <ctime>

long decode_stamp_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000000000L + ts.tv_nsec;
}
