#include <chrono>

#include "bench.h"
#include "net/shard.h"

namespace perfbench {

namespace fx = flexnet;

bool UsesHeavyTail(Workload w) { return w == Workload::kFabricHeavytail; }

std::string SetUp(const Options& options, Instance& out, bool shards) {
  const auto t0 = std::chrono::steady_clock::now();
  out.fabric = std::make_unique<Fabric>();
  Fabric& fabric = *out.fabric;
  const std::string error = fabric.Setup(options.size);
  if (!error.empty()) return error;
  out.topology_s = fabric.topology_s;
  out.deploy_s = fabric.deploy_s;
  if (shards) {
    fx::net::ShardingConfig sharding;
    sharding.workers = kShardWorkers;
    sharding.threaded = true;
    fabric.network.ConfigureSharding(sharding);
  }
  if (UsesHeavyTail(options.workload)) {
    out.stream = std::make_unique<HeavyTailStream>(fabric, options.seed);
  } else {
    out.stream = std::make_unique<HotStream>(fabric, options.seed);
  }
  out.driver = std::make_unique<Driver>(out.fabric.get(), out.stream.get());

  // Cache warm-up: every hot flow twice on each of its hops, or the first
  // 256 heavy-tailed bursts.
  const std::size_t warm_bursts =
      UsesHeavyTail(options.workload) ? 256 : 2 * out.stream->round();
  for (std::size_t i = 0; i < warm_bursts; ++i) {
    if (shards) {
      fx::packet::PacketBatch batch = fabric.network.AcquireBatch();
      const DeviceId from = out.driver->Prepare(batch);
      fabric.network.InjectBatch(from, std::move(batch));
    } else {
      out.driver->SendBurst();
    }
  }
  if (shards) fabric.network.FlushShards();
  out.driver->Verify();
  if (!out.driver->ok()) return "warm-up: " + out.driver->mismatch();
  out.setup_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return "";
}

}  // namespace perfbench
