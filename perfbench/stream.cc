#include "stream.h"

namespace perfbench {

HotStream::HotStream(const Fabric& fabric, std::uint64_t seed) {
  flexnet::Rng rng(seed ^ 0x40751eadULL);
  const std::size_t hpl = fabric.hosts_per_leaf();
  const std::size_t leaves = fabric.leaves();
  const auto ep = [&](std::size_t leaf, std::size_t h) {
    return static_cast<std::uint32_t>(leaf * hpl + h);
  };
  // Slot i sends from a host on leaf i % leaves, so every run spreads its
  // sources (and the leaves its ACL changes hit) the same way; the seed
  // picks the host within each leaf, the source ports and 80 or 443.  Slot 0
  // is the tenant's host on leaf 0, slot 1 the load balancer's host.
  for (std::size_t slot = 0; slot < kHosts; ++slot) {
    hosts_.push_back(slot == 1 ? fabric.lb_ep
                               : ep(slot % leaves, rng.NextBounded(hpl)));
  }
  for (std::size_t slot = 0; slot < hosts_.size(); ++slot) {
    const std::uint32_t src = hosts_[slot];
    const std::size_t src_leaf = src / hpl;
    std::vector<PacketSpec> flows;
    for (std::size_t j = 0; j < kFlowsPerHost; ++j) {
      PacketSpec f;
      f.src_ep = src;
      f.src_ip = fabric.address(src);
      // Flow j goes to the j-th other leaf, so with 16 leaves every leaf
      // receives the same number of flows whatever the seed.
      const std::size_t dst_leaf = (src_leaf + 1 + j % (leaves - 1)) % leaves;
      f.dst_ip = fabric.address(ep(dst_leaf, rng.NextBounded(hpl)));
      f.sport = 10000 + rng.NextBounded(50000);
      f.dport = rng.NextBool(0.5) ? 80 : 443;
      if (j < 2) {
        f.dport = kDeniedPort;
      } else if (j < 4) {
        f.dport = kPatchedPort;
      } else if (j < 6 && slot == 0) {
        f.dport = kTenantBlockLo + rng.NextBounded(kTenantBlockHi -
                                                   kTenantBlockLo + 1);
      } else if (j < 8 && slot == 1) {
        f.dst_ip = kVip;
      }
      if (slot == 0) f.vlan = kTenantVlan;
      flows.push_back(f);
    }
    flows_.push_back(std::move(flows));
  }
}

void HotStream::Next(std::vector<PacketSpec>& out) {
  out.clear();
  const std::vector<PacketSpec>& flows = flows_[next_];
  next_ = (next_ + 1) % flows_.size();
  for (std::size_t rep = 0; rep < kBurst / kFlowsPerHost; ++rep) {
    out.insert(out.end(), flows.begin(), flows.end());
  }
}

std::size_t HotStream::HostLeaf(std::size_t n, const Fabric& fabric) const {
  return hosts_[n % hosts_.size()] / fabric.hosts_per_leaf();
}

HeavyTailStream::HeavyTailStream(const Fabric& fabric, std::uint64_t seed)
    : rng_(seed ^ 0x4ea7a11ULL),
      endpoints_(fabric.endpoints()),
      leaves_(fabric.leaves()),
      hosts_per_leaf_(fabric.hosts_per_leaf()) {
  config_.flows = 1310720;  // 1.25M, E15's population
  config_.elephants = 4096;
  for (std::size_t i = 0; i < endpoints_; ++i) {
    addresses_.push_back(fabric.address(static_cast<std::uint32_t>(i)));
  }
}

void HeavyTailStream::Next(std::vector<PacketSpec>& out) {
  out.clear();
  const auto src = static_cast<std::uint32_t>(rng_.NextBounded(endpoints_));
  const std::size_t src_leaf = src / hosts_per_leaf_;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const flexnet::net::FlowSpec flow =
        flexnet::net::TrafficGenerator::HeavyTailFlow(config_, rng_);
    const std::uint64_t idx = flow.src_ip - config_.src_base;
    PacketSpec p;
    p.src_ep = src;
    p.src_ip = flow.src_ip;
    p.sport = flow.src_port;
    p.dport = idx % 8 == 3 ? kDeniedPort : flow.dst_port;
    const std::size_t dst_leaf =
        (src_leaf + 1 + (idx / 8) % (leaves_ - 1)) % leaves_;
    const std::size_t dst_host = (idx / 8 / (leaves_ - 1)) % hosts_per_leaf_;
    p.dst_ip = addresses_[dst_leaf * hosts_per_leaf_ + dst_host];
    out.push_back(p);
  }
}

}  // namespace perfbench
