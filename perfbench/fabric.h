// The benchmark's fabric: a leaf-spine network running the infrastructure
// program on every switch, a firewall app on every leaf, one tenant
// extension on leaf 0 and a load balancer on one host, all deployed
// through controller::Controller.  Beside it the benchmark keeps its own
// model of what those programs do (ACL and tenant blocklist verdicts, the
// load balancer's backend, hop counts and per-device counter totals), so
// every delivered or dropped packet is checked against a prediction made
// apart from the program.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "controller/tenant.h"
#include "net/network.h"
#include "net/topology.h"
#include "packet/packet.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace perfbench {

using flexnet::DeviceId;

struct FabricSize {
  std::size_t spines = 4;
  std::size_t leaves = 16;
  std::size_t hosts_per_leaf = 8;
};

// Fixed addresses and ports of the programs.  None of them depend on the
// seed: the seed only picks flows.
inline constexpr std::uint64_t kDeniedPort = 23;         // base ACL: deny
inline constexpr std::uint64_t kPatchedPort = 8080;      // patch-DSL ACL entry
inline constexpr std::uint64_t kTenantBlockLo = 7000;    // tenant blocklist
inline constexpr std::uint64_t kTenantBlockHi = 7099;
inline constexpr std::uint64_t kTenantVlan = 100;        // first VLAN handed out
inline constexpr std::uint64_t kVip = 0x0ac80001;        // 10.200.0.1
inline constexpr std::uint64_t kInitialTtl = 64;
inline constexpr const char* kTenantName = "tenant-a";

// Simulated link latencies of the leaf-spine (the builder's fixed
// host-NIC link plus the two configured tiers), in sim-time ns.
inline constexpr std::int64_t kHostNicNs = 200;
inline constexpr std::int64_t kEdgeLinkNs = 1000;
inline constexpr std::int64_t kFabricLinkNs = 2000;

// One packet as the benchmark describes it before building it.
struct PacketSpec {
  std::uint32_t src_ep = 0;     // endpoint index the packet is injected at
  std::uint64_t src_ip = 0;
  std::uint64_t dst_ip = 0;     // endpoint address or kVip
  std::uint64_t sport = 0;
  std::uint64_t dport = 0;
  std::uint64_t vlan = 0;       // 0 = untagged
};

flexnet::packet::Packet BuildPacket(const PacketSpec& spec, std::uint64_t id);

enum class Fate : std::uint8_t { kDeliver, kFwDeny, kTenantBlock };

struct Prediction {
  Fate fate = Fate::kDeliver;
  std::uint64_t final_dst = 0;  // delivered packets: address after the LB
  std::uint64_t ttl = 0;        // delivered packets: TTL on arrival
  std::int64_t link_ns = 0;     // delivered packets: sim-time link latency
};

// The benchmark's model of the deployed programs.
class Model {
 public:
  void Reset(std::size_t leaves, std::size_t hosts_per_leaf,
             std::vector<std::uint64_t> addresses, std::uint32_t lb_ep,
             std::uint64_t lb_backend);

  // Verdict under the programs in force now.  Also credits the per-device
  // counters the packet will bump.
  Prediction PredictAndCount(const PacketSpec& spec);

  std::size_t LeafOf(std::uint32_t ep) const { return ep / hosts_per_leaf_; }
  std::int64_t EndpointOf(std::uint64_t address) const;

  // State changes the controller is asked to make.
  void SetPatchedDeny(std::size_t leaf, bool on) { patched_deny_[leaf] = on; }
  void SetTenantAdmitted(bool on) { tenant_admitted_ = on; }
  void SetLbBackend(std::uint64_t backend) { lb_backend_ = backend; }

  std::uint64_t leaf_count(std::size_t leaf) const { return leaf_pkts_[leaf]; }
  std::uint64_t spine_total() const { return spine_pkts_; }

 private:
  bool AclDenies(std::size_t leaf, const PacketSpec& spec) const;

  std::size_t hosts_per_leaf_ = 1;
  std::vector<std::uint64_t> addresses_;
  std::vector<bool> patched_deny_;
  bool tenant_admitted_ = false;
  std::uint32_t lb_ep_ = 0;
  std::uint64_t lb_backend_ = 0;
  std::vector<std::uint64_t> leaf_pkts_;
  std::uint64_t spine_pkts_ = 0;
};

// The app-level changes the benchmark makes, in rotation order.
enum class ChangeKind : std::uint8_t {
  kEntryAdd,
  kEntryRemove,
  kTenantRemove,
  kTenantAdmit,
  kFunction,
};
inline constexpr std::array<ChangeKind, 5> kChangeRotation = {
    ChangeKind::kEntryAdd, ChangeKind::kEntryRemove, ChangeKind::kTenantRemove,
    ChangeKind::kTenantAdmit, ChangeKind::kFunction};
const char* ToString(ChangeKind kind);

// What one app-level change did, timed on the host wall clock.
struct ChangeResult {
  bool ok = false;
  std::string error;
  double wall_ms = 0;      // the whole app-level call
  double patch_ms = 0;     // compiler::ApplyPatch share (entry changes)
  double modeled_window_us = 0;  // sim time the change took (reference only)
  std::size_t plan_ops = 0;
};

class Fabric {
 public:
  Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Builds the topology and deploys every app.  Returns an error message,
  // empty on success.
  std::string Setup(const FabricSize& size);

  // Makes one app-level change through the controller, aimed at `leaf`
  // for ACL entry changes, and keeps the model in step.
  ChangeResult ApplyChange(ChangeKind kind, std::size_t leaf);

  // Sum of infra.stats pkts cells on `device`.
  std::uint64_t InfraCount(DeviceId device);
  // Compares every switch's infra.stats against the model.  Returns the
  // first mismatch as text, empty when all agree.
  std::string CheckCounters();

  flexnet::sim::Simulator sim;
  flexnet::telemetry::MetricsRegistry metrics;
  flexnet::net::Network network{&sim};
  flexnet::controller::Controller controller{&network, {}, &metrics};
  flexnet::controller::TenantManager tenants{&controller};
  flexnet::net::LeafSpineTopology topo;
  Model model;

  double topology_s = 0;  // last Setup: BuildLeafSpine
  double deploy_s = 0;    // last Setup: every DeployApp and the tenant admit

  std::uint32_t lb_ep = 0;
  std::array<std::uint64_t, 2> backends{};
  std::size_t backend_index = 0;

  std::size_t leaves() const { return topo.leaves.size(); }
  std::size_t hosts_per_leaf() const { return hosts_per_leaf_; }
  std::size_t endpoints() const { return topo.endpoints.size(); }
  DeviceId host(std::uint32_t ep) const { return topo.endpoints[ep].host; }
  std::uint64_t address(std::uint32_t ep) const {
    return topo.endpoints[ep].address;
  }
  std::string FirewallUri(std::size_t leaf) const;

 private:
  std::size_t hosts_per_leaf_ = 1;
};

}  // namespace perfbench
