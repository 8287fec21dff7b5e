#include "fabric.h"

#include <chrono>

#include "apps/firewall.h"
#include "apps/infra.h"
#include "apps/load_balancer.h"
#include "compiler/patch.h"
#include "flexbpf/text_parser.h"

namespace perfbench {

namespace fx = flexnet;

namespace {

// A tenant extension in the FlexBPF text DSL: a per-flow packet meter and
// a port blocklist.  TenantManager gates both on the tenant's VLAN.
constexpr const char* kTenantExtension = R"(
program tenant_ext

map usage size 512 cells pkts

table blocklist key tcp.dport:range:16 capacity 16
  action refuse drop tenant_blocklist
  default nop
  entry 7000-7099 -> refuse
end

func meter
  r0 = flowkey
  r1 = const 1
  mapadd usage r0 pkts r1
  return
end
)";

constexpr const char* kEntryAddPatch =
    "patch deny_8080\n"
    "on table fw.acl entry 0/0,0/0,8080-8080 -> deny priority 50\n";
constexpr const char* kEntryRemovePatch =
    "patch allow_8080\n"
    "on table fw.acl remove-entry 0/0,0/0,8080-8080\n";

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

fx::packet::Packet BuildPacket(const PacketSpec& spec, std::uint64_t id) {
  fx::packet::Packet p(id, 64);  // minimum-size frames
  fx::packet::AddEthernet(
      p, fx::packet::EthernetSpec{0, 0, spec.vlan != 0 ? 0x8100ULL : 0x0800ULL});
  if (spec.vlan != 0) fx::packet::AddVlan(p, spec.vlan);
  fx::packet::AddIpv4(p, fx::packet::Ipv4Spec{spec.src_ip, spec.dst_ip, 6,
                                              kInitialTtl, 0});
  fx::packet::AddTcp(p, fx::packet::TcpSpec{spec.sport, spec.dport});
  return p;
}

// --- Model -----------------------------------------------------------------

void Model::Reset(std::size_t leaves, std::size_t hosts_per_leaf,
                  std::vector<std::uint64_t> addresses, std::uint32_t lb_ep,
                  std::uint64_t lb_backend) {
  hosts_per_leaf_ = hosts_per_leaf;
  addresses_ = std::move(addresses);
  patched_deny_.assign(leaves, false);
  tenant_admitted_ = true;
  lb_ep_ = lb_ep;
  lb_backend_ = lb_backend;
  leaf_pkts_.assign(leaves, 0);
  spine_pkts_ = 0;
}

std::int64_t Model::EndpointOf(std::uint64_t address) const {
  // Leaf-spine addresses are handed out consecutively from the first one.
  if (addresses_.empty() || address < addresses_.front()) return -1;
  const std::uint64_t i = address - addresses_.front();
  return i < addresses_.size() ? static_cast<std::int64_t>(i) : -1;
}

bool Model::AclDenies(std::size_t leaf, const PacketSpec& spec) const {
  if (spec.dport == kDeniedPort) return true;
  return patched_deny_[leaf] && spec.dport == kPatchedPort;
}

Prediction Model::PredictAndCount(const PacketSpec& spec) {
  Prediction out;
  out.final_dst = spec.dst_ip;
  if (spec.dst_ip == kVip && spec.src_ep == lb_ep_) out.final_dst = lb_backend_;
  const std::int64_t dst_ep = EndpointOf(out.final_dst);
  const std::size_t src_leaf = LeafOf(spec.src_ep);
  const std::size_t dst_leaf = LeafOf(static_cast<std::uint32_t>(dst_ep));
  // Leaf check order follows each leaf's pipeline: firewall ACL, then the
  // tenant blocklist (installed on leaf 0 only).
  const auto leaf_fate = [&](std::size_t leaf) {
    if (AclDenies(leaf, spec)) return Fate::kFwDeny;
    if (leaf == 0 && tenant_admitted_ && spec.vlan == kTenantVlan &&
        spec.dport >= kTenantBlockLo && spec.dport <= kTenantBlockHi) {
      return Fate::kTenantBlock;
    }
    return Fate::kDeliver;
  };
  out.fate = leaf_fate(src_leaf);
  if (out.fate != Fate::kDeliver) return out;
  ++leaf_pkts_[src_leaf];
  std::uint64_t switches = 1;
  out.link_ns = 2 * (kHostNicNs + kEdgeLinkNs);
  if (dst_leaf != src_leaf) {
    ++spine_pkts_;
    out.fate = leaf_fate(dst_leaf);
    if (out.fate != Fate::kDeliver) return out;
    ++leaf_pkts_[dst_leaf];
    switches = 3;
    out.link_ns += 2 * kFabricLinkNs;
  }
  out.ttl = kInitialTtl - switches;  // infra.ttl runs on every switch
  return out;
}

// --- Fabric ----------------------------------------------------------------

const char* ToString(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kEntryAdd: return "entry_add";
    case ChangeKind::kEntryRemove: return "entry_remove";
    case ChangeKind::kTenantRemove: return "tenant_remove";
    case ChangeKind::kTenantAdmit: return "tenant_admit";
    case ChangeKind::kFunction: return "function";
  }
  return "?";
}

Fabric::Fabric() = default;

std::string Fabric::FirewallUri(std::size_t leaf) const {
  return "flexnet://fw/leaf" + std::to_string(leaf);
}

std::string Fabric::Setup(const FabricSize& size) {
  if (size.leaves < 4 || size.hosts_per_leaf < 1 || size.spines < 1) {
    return "fabric needs at least 4 leaves, 1 spine and 1 host per leaf";
  }
  hosts_per_leaf_ = size.hosts_per_leaf;
  fx::net::LeafSpineConfig config;
  config.spines = size.spines;
  config.leaves = size.leaves;
  config.hosts_per_leaf = size.hosts_per_leaf;
  config.edge_link_latency = kEdgeLinkNs;
  config.fabric_link_latency = kFabricLinkNs;
  const auto t_topology = std::chrono::steady_clock::now();
  topo = fx::net::BuildLeafSpine(network, config);
  topology_s = MsSince(t_topology) / 1e3;
  const auto t_deploy = std::chrono::steady_clock::now();

  // Infrastructure: one /32 route per endpoint, on every switch.  The
  // packet counter map is a register array so its totals stay exact
  // however many flows hash into it.
  fx::apps::InfraOptions infra_options;
  infra_options.l3_capacity = std::max<std::size_t>(2048, endpoints() + 16);
  fx::flexbpf::ProgramIR infra =
      fx::apps::MakeInfrastructureProgram(infra_options);
  for (const fx::net::EndpointIds& ep : topo.endpoints) {
    fx::apps::AddRoute(infra, ep.address, 32, 0);
  }
  for (fx::flexbpf::MapDecl& map : infra.maps) {
    if (map.name == "infra.stats") {
      map.encoding = fx::flexbpf::MapEncoding::kRegisterArray;
    }
  }
  std::vector<DeviceId> switches = topo.spines;
  switches.insert(switches.end(), topo.leaves.begin(), topo.leaves.end());
  for (const DeviceId id : switches) {
    fx::runtime::ManagedDevice* device = network.Find(id);
    auto deployed = controller.DeployApp("flexnet://infra/" + device->name(),
                                         infra, {device});
    if (!deployed.ok()) return "infra deploy: " + deployed.error().ToText();
  }

  fx::apps::FirewallOptions fw_options;
  fx::apps::FirewallRule deny;
  deny.dport_lo = kDeniedPort;
  deny.dport_hi = kDeniedPort;
  deny.allow = false;
  fw_options.rules.push_back(deny);
  const fx::flexbpf::ProgramIR firewall =
      fx::apps::MakeFirewallProgram(fw_options);
  for (std::size_t l = 0; l < leaves(); ++l) {
    auto deployed = controller.DeployApp(FirewallUri(l), firewall,
                                         {network.Find(topo.leaves[l])});
    if (!deployed.ok()) return "firewall deploy: " + deployed.error().ToText();
  }

  ChangeResult admitted = ApplyChange(ChangeKind::kTenantAdmit, 0);
  if (!admitted.ok) return "tenant admit: " + admitted.error;

  lb_ep = static_cast<std::uint32_t>(hosts_per_leaf_);  // first host, leaf 1
  backends = {address(static_cast<std::uint32_t>(2 * hosts_per_leaf_)),
              address(static_cast<std::uint32_t>(3 * hosts_per_leaf_))};
  backend_index = 0;
  auto lb = controller.DeployApp(
      "flexnet://lb/vip",
      fx::apps::MakeLoadBalancerProgram(kVip, {backends[0]}),
      {network.Find(host(lb_ep))});
  if (!lb.ok()) return "load balancer deploy: " + lb.error().ToText();
  deploy_s = MsSince(t_deploy) / 1e3;

  std::vector<std::uint64_t> addresses;
  for (const fx::net::EndpointIds& ep : topo.endpoints) {
    addresses.push_back(ep.address);
  }
  for (std::size_t i = 1; i < addresses.size(); ++i) {
    if (addresses[i] != addresses[0] + i) return "endpoint addresses not dense";
  }
  model.Reset(leaves(), hosts_per_leaf_, std::move(addresses), lb_ep,
              backends[0]);
  return "";
}

ChangeResult Fabric::ApplyChange(ChangeKind kind, std::size_t leaf) {
  ChangeResult r;
  const fx::SimTime sim0 = sim.now();
  const auto t0 = std::chrono::steady_clock::now();
  switch (kind) {
    case ChangeKind::kEntryAdd:
    case ChangeKind::kEntryRemove: {
      const std::string uri = FirewallUri(leaf);
      const fx::controller::AppRecord* app = controller.FindApp(uri);
      if (app == nullptr) {
        r.error = "no app " + uri;
        return r;
      }
      fx::flexbpf::ProgramIR patched = app->program;
      const auto p0 = std::chrono::steady_clock::now();
      auto report = fx::compiler::ApplyPatch(
          patched, kind == ChangeKind::kEntryAdd ? kEntryAddPatch
                                                 : kEntryRemovePatch);
      r.patch_ms = MsSince(p0);
      if (!report.ok()) {
        r.error = report.error().ToText();
        return r;
      }
      auto updated = controller.UpdateApp(uri, std::move(patched));
      if (!updated.ok()) {
        r.error = updated.error().ToText();
        return r;
      }
      r.plan_ops = updated->plan_ops;
      model.SetPatchedDeny(leaf, kind == ChangeKind::kEntryAdd);
      break;
    }
    case ChangeKind::kTenantRemove: {
      const auto status = tenants.RemoveTenant(kTenantName);
      if (!status.ok()) {
        r.error = status.error().ToText();
        return r;
      }
      model.SetTenantAdmitted(false);
      break;
    }
    case ChangeKind::kTenantAdmit: {
      static const auto extension =
          fx::flexbpf::ParseProgramText(kTenantExtension);
      if (!extension.ok()) {
        r.error = extension.error().ToText();
        return r;
      }
      auto record = tenants.AdmitTenantOn(kTenantName, extension.value(),
                                          {network.Find(topo.leaves[0])});
      if (!record.ok()) {
        r.error = record.error().ToText();
        return r;
      }
      if (record->vlan != kTenantVlan) {
        r.error = "tenant got VLAN " + std::to_string(record->vlan);
        return r;
      }
      model.SetTenantAdmitted(true);
      break;
    }
    case ChangeKind::kFunction: {
      const std::size_t next = backend_index ^ 1;
      auto updated = controller.UpdateApp(
          "flexnet://lb/vip",
          fx::apps::MakeLoadBalancerProgram(kVip, {backends[next]}));
      if (!updated.ok()) {
        r.error = updated.error().ToText();
        return r;
      }
      r.plan_ops = updated->plan_ops;
      backend_index = next;
      model.SetLbBackend(backends[next]);
      break;
    }
  }
  r.wall_ms = MsSince(t0);
  r.modeled_window_us = static_cast<double>(sim.now() - sim0) / 1e3;
  r.ok = true;
  return r;
}

std::uint64_t Fabric::InfraCount(DeviceId device) {
  fx::runtime::ManagedDevice* managed = network.Find(device);
  if (managed == nullptr) return 0;
  const fx::state::EncodedMap* map = managed->maps().Find("infra.stats");
  if (map == nullptr) return 0;
  std::uint64_t sum = 0;
  for (const fx::state::MapCellValue& cell : map->Export()) {
    if (cell.cell == "pkts") sum += cell.value;
  }
  return sum;
}

std::string Fabric::CheckCounters() {
  for (std::size_t l = 0; l < leaves(); ++l) {
    const std::uint64_t got = InfraCount(topo.leaves[l]);
    if (got != model.leaf_count(l)) {
      return "leaf" + std::to_string(l) + " infra.stats pkts " +
             std::to_string(got) + " != routed " +
             std::to_string(model.leaf_count(l));
    }
  }
  std::uint64_t spines = 0;
  for (const DeviceId id : topo.spines) spines += InfraCount(id);
  if (spines != model.spine_total()) {
    return "spine infra.stats pkts " + std::to_string(spines) +
           " != routed " + std::to_string(model.spine_total());
  }
  return "";
}

}  // namespace perfbench
