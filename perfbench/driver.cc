#include "driver.h"

#include <chrono>

#include "packet/intern.h"

namespace perfbench {

namespace fx = flexnet;

Driver::Driver(Fabric* fabric, Stream* stream)
    : fabric_(fabric), stream_(stream) {
  static const fx::packet::FieldRef dst_ref =
      fx::packet::InternFieldPath("ipv4.dst");
  static const fx::packet::FieldRef ttl_ref =
      fx::packet::InternFieldPath("ipv4.ttl");
  fabric_->network.SetDeliverySink(
      [this](const fx::net::DeliveryRecord& record) {
        arrivals_.push_back(
            Arrival{record.packet.id(),
                    record.packet.GetField(dst_ref).value_or(0),
                    record.packet.GetField(ttl_ref).value_or(0),
                    static_cast<std::int64_t>(record.latency)});
      });
  dropped_seen_ = fabric_->network.stats().dropped;
}

DeviceId Driver::Prepare(fx::packet::PacketBatch& batch) {
  stream_->Next(specs_);
  for (const PacketSpec& spec : specs_) {
    pending_.push_back(fabric_->model.PredictAndCount(spec));
    batch.Push(BuildPacket(spec, next_id_++));
  }
  packets_ += specs_.size();
  return fabric_->host(specs_.front().src_ep);
}

double Driver::SendBurst() {
  fx::packet::PacketBatch batch = fabric_->network.AcquireBatch();
  const DeviceId from = Prepare(batch);
  const auto t0 = std::chrono::steady_clock::now();
  fabric_->network.InjectBatch(from, std::move(batch));
  fabric_->sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  Verify();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

void Driver::Verify() {
  seen_.assign(pending_.size(), 0);
  std::uint64_t expect_delivered = 0;
  for (const Prediction& p : pending_) {
    if (p.fate == Fate::kDeliver) {
      ++expect_delivered;
    } else if (p.fate == Fate::kFwDeny) {
      ++fw_denied_;
    } else {
      ++tenant_blocked_;
    }
  }
  for (const Arrival& a : arrivals_) {
    if (a.id < pending_base_ || a.id - pending_base_ >= pending_.size()) {
      Fail("delivery of unknown packet id " + std::to_string(a.id));
      continue;
    }
    const std::uint64_t i = a.id - pending_base_;
    const Prediction& p = pending_[i];
    if (seen_[i] != 0) Fail("packet " + std::to_string(a.id) + " delivered twice");
    seen_[i] = 1;
    if (p.fate != Fate::kDeliver) {
      Fail("packet " + std::to_string(a.id) +
           " delivered, model predicts a drop (cached verdict outlived a "
           "change?)");
    } else if (a.dst != p.final_dst) {
      Fail("packet " + std::to_string(a.id) + " delivered to " +
           std::to_string(a.dst) + ", model predicts " +
           std::to_string(p.final_dst));
    } else if (a.ttl != p.ttl) {
      Fail("packet " + std::to_string(a.id) + " arrived with TTL " +
           std::to_string(a.ttl) + ", hop count predicts " +
           std::to_string(p.ttl));
    } else if (a.latency < p.link_ns) {
      Fail("packet " + std::to_string(a.id) + " modeled latency " +
           std::to_string(a.latency) + " ns is below its links' " +
           std::to_string(p.link_ns) + " ns");
    }
    if (a.id % 16 == 0) {
      modeled_latency_ns_.push_back(static_cast<double>(a.latency));
    }
  }
  if (arrivals_.size() != expect_delivered) {
    Fail("window delivered " + std::to_string(arrivals_.size()) +
         " packets, model predicts " + std::to_string(expect_delivered));
  }
  const std::uint64_t dropped = fabric_->network.stats().dropped;
  const std::uint64_t expect_dropped = pending_.size() - expect_delivered;
  if (dropped - dropped_seen_ != expect_dropped) {
    Fail("window dropped " + std::to_string(dropped - dropped_seen_) +
         " packets, model predicts " + std::to_string(expect_dropped));
  }
  dropped_seen_ = dropped;
  delivered_ += arrivals_.size();
  arrivals_.clear();
  pending_base_ += pending_.size();
  pending_.clear();
}

void Driver::FinalChecks() {
  Verify();
  const fx::net::NetworkStats& stats = fabric_->network.stats();
  for (const auto& [reason, count] : stats.drops_by_reason) {
    const std::uint64_t expect = reason == "fw_deny"            ? fw_denied_
                                 : reason == "tenant_blocklist" ? tenant_blocked_
                                                                : 0;
    if (count != expect) {
      Fail("drop reason " + reason + ": " + std::to_string(count) +
           " packets, model predicts " + std::to_string(expect));
    }
  }
  if (stats.injected != stats.delivered + stats.dropped) {
    Fail("injected " + std::to_string(stats.injected) + " != delivered " +
         std::to_string(stats.delivered) + " + dropped " +
         std::to_string(stats.dropped));
  }
  const std::string counters = fabric_->CheckCounters();
  if (!counters.empty()) Fail(counters);
}

}  // namespace perfbench
