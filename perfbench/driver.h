// Sends seeded bursts into a Fabric and checks every outcome against the
// benchmark's model: each delivered packet's destination and TTL, each
// window's delivered and dropped counts, and (on demand) the drop reasons
// and per-switch counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric.h"
#include "stream.h"

namespace perfbench {

class Driver {
 public:
  Driver(Fabric* fabric, Stream* stream);
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  // Draws the next burst, predicts every packet under the programs in
  // force now and builds the batch.  Returns the injection device.
  DeviceId Prepare(flexnet::packet::PacketBatch& batch);

  // Closed loop on the event-driven transport: Prepare, then
  // Network::InjectBatch + Simulator::Run, then Verify.  Returns the
  // inject-to-drained wall time in microseconds.
  double SendBurst();

  // Checks every packet predicted since the last Verify: the deliveries
  // the sink saw and the drops the network counted.  Records the first
  // mismatch.
  void Verify();

  // End-of-run checks: drop reasons and per-switch counters.
  void FinalChecks();

  bool ok() const { return mismatch_.empty(); }
  const std::string& mismatch() const { return mismatch_; }
  void Fail(const std::string& what) {
    if (mismatch_.empty()) mismatch_ = what;
  }

  // Sim-time delivery latency of every 16th delivered packet (modeled by
  // the arch cost model; a reference figure, not a measurement).
  const std::vector<double>& modeled_latency_ns() const {
    return modeled_latency_ns_;
  }

  std::uint64_t packets() const { return packets_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  struct Arrival {
    std::uint64_t id;
    std::uint64_t dst;
    std::uint64_t ttl;
    std::int64_t latency;
  };

  Fabric* fabric_;
  Stream* stream_;
  std::vector<PacketSpec> specs_;
  std::vector<Prediction> pending_;
  std::vector<Arrival> arrivals_;
  std::vector<std::uint8_t> seen_;
  std::uint64_t next_id_ = 1;
  std::uint64_t pending_base_ = 1;
  std::uint64_t dropped_seen_ = 0;  // network drop counter at last Verify
  std::uint64_t packets_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t fw_denied_ = 0;
  std::uint64_t tenant_blocked_ = 0;
  std::vector<double> modeled_latency_ns_;
  std::string mismatch_;
};

}  // namespace perfbench
