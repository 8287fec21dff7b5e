// Shared pieces of the benchmark binary: options, workload set-up and the
// traced layer ladder.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver.h"
#include "fabric.h"
#include "stream.h"

namespace perfbench {

enum class Workload : std::uint8_t {
  kFabricHot,
  kFabricHeavytail,
  kLiveReconfig,
};

struct Options {
  Workload workload = Workload::kFabricHot;
  std::string workload_name;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  FabricSize size;
};

// A fabric with its stream and driver, set up and warmed for a workload.
struct Instance {
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<Driver> driver;
  double topology_s = 0;  // BuildLeafSpine (devices, links, routes)
  double deploy_s = 0;    // every DeployApp of the set-up
  double setup_s = 0;     // whole set-up including cache warm-up
};

inline constexpr std::size_t kShardWorkers = 2;

bool UsesHeavyTail(Workload w);

// Builds and warms one instance; `shards` puts the threaded sharded plane
// (kShardWorkers workers) in front of the fabric, as the ladder's shard
// rung uses it.  Returns an error message, empty on success.
std::string SetUp(const Options& options, Instance& out, bool shards);

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

// Per-layer figures measured on a separate fabric instance by replaying
// the workload's seeded stream through each layer's public entry point.
// `e2e_ns_per_pkt` is the untraced closed-loop cost per packet from the
// same run; the remainder the rungs leave against it is reported.
std::string RunLadder(const Options& options, double e2e_ns_per_pkt,
                      MetricMap& metrics);

}  // namespace perfbench
