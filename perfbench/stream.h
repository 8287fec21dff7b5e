// Seeded packet streams.  A stream hands out bursts of PacketSpecs, each
// burst injected at one host; the same seed gives the same bursts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fabric.h"
#include "net/traffic.h"

namespace perfbench {

inline constexpr std::size_t kBurst = 32;

class Stream {
 public:
  virtual ~Stream() = default;
  // Fills `out` with the next burst (all from one source endpoint).
  virtual void Next(std::vector<PacketSpec>& out) = 0;
  // Bursts per round: a run stops only at whole rounds, so every run sends
  // the same mix of flows.
  virtual std::size_t round() const = 0;
};

// Long-lived flows: 16 source hosts with 16 flows each, sent round-robin,
// every flow twice per burst.  The fabric must have at least 2 leaves; with
// 16 or more, the source hosts sit on distinct leaves.  Host 0 sits on leaf 0 and tags its flows
// with the tenant's VLAN; host 1 is the load balancer's host and aims a
// quarter of its flows at the VIP.  On every host two flows use the
// ACL-denied port and two the port the patch-DSL change denies; the
// tenant host has two flows in the tenant blocklist range.
class HotStream final : public Stream {
 public:
  HotStream(const Fabric& fabric, std::uint64_t seed);
  void Next(std::vector<PacketSpec>& out) override;
  std::size_t round() const override { return hosts_.size(); }
  // Leaf of the source host the n-th burst of a round comes from.
  std::size_t HostLeaf(std::size_t n, const Fabric& fabric) const;

  static constexpr std::size_t kHosts = 16;
  static constexpr std::size_t kFlowsPerHost = 16;

 private:
  std::vector<std::uint32_t> hosts_;
  std::vector<std::vector<PacketSpec>> flows_;
  std::size_t next_ = 0;
};

// The E15 heavy-tailed population (TrafficGenerator::HeavyTailFlow:
// 1.25M flows, 4096 Zipf elephants, 70% uniform mice) spread over the
// fabric: each burst comes from a seeded random host, each packet's
// destination is a host on another leaf derived from the flow index, and
// one flow index in eight uses the ACL-denied port.
class HeavyTailStream final : public Stream {
 public:
  HeavyTailStream(const Fabric& fabric, std::uint64_t seed);
  void Next(std::vector<PacketSpec>& out) override;
  std::size_t round() const override { return 1; }

 private:
  flexnet::net::TrafficGenerator::HeavyTailConfig config_;
  flexnet::Rng rng_;
  std::size_t endpoints_;
  std::size_t leaves_;
  std::size_t hosts_per_leaf_;
  std::vector<std::uint64_t> addresses_;
};

}  // namespace perfbench
