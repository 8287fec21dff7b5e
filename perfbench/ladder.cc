// The traced layer ladder.  The workload's seeded stream (the bursts that
// follow the set-up's warm-up) is replayed through one layer entry point
// after another, each on a freshly set-up fabric so every rung starts from
// the same cache state:
//
//   1. packet build                       (BuildPacket)
//   2. parse and signature                (ParseGraph::Parse,
//                                          Packet::ContentSignature)
//   3. pipeline      per hop of PathTo    (Pipeline::ProcessBatch)
//   4. arch device   per hop of PathTo    (arch::Device::ProcessPacketBatch)
//   5. managed device per hop of PathTo   (ManagedDevice::ProcessBatch)
//   6. end to end                         (Network::InjectBatch +
//                                          Simulator::Run)
//
// plus a bare simulator rung, the sharded plane's enqueue rung and a
// compiler/runtime replay of the ACL change.  Each call is one span (name,
// start, end, parent, burst id); a layer's self time is its rung minus the
// rung below it.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <span>

#include "alloc_count.h"
#include "bench.h"
#include "compiler/incremental.h"
#include "cpu.h"
#include "compiler/patch.h"
#include "net/shard.h"
#include "runtime/engine.h"
#include "spans.h"

namespace perfbench {

namespace fx = flexnet;

namespace {

constexpr std::size_t kLadderBursts = 2048;
constexpr std::size_t kChunkBursts = 256;
constexpr int kReplayPairs = 20;

struct Item {
  PacketSpec spec;
  Fate fate;
  const std::vector<DeviceId>* path;
};

struct RungResult {
  double ns = 0;          // time inside the timed calls
  std::uint64_t units = 0;  // packets or packet-hops processed
  std::uint64_t allocs = 0;
  double per_unit() const { return units ? ns / units : 0; }
  double allocs_per_unit() const {
    return units ? static_cast<double>(allocs) / units : 0;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

class Ladder {
 public:
  Ladder(const Options& options, SpanRecorder& spans)
      : options_(options), spans_(spans) {}

  std::string Prepare() {
    Instance inst;
    const std::string error = SetUp(options_, inst, false);
    if (!error.empty()) return error;
    Fabric& f = *inst.fabric;
    std::vector<PacketSpec> specs;
    for (std::size_t b = 0; b < kLadderBursts; ++b) {
      inst.stream->Next(specs);
      std::vector<Item> burst;
      for (const PacketSpec& spec : specs) {
        const Prediction p = f.model.PredictAndCount(spec);
        const auto key = std::make_pair(spec.src_ep, p.final_dst);
        auto it = paths_.find(key);
        if (it == paths_.end()) {
          it = paths_.emplace(key, f.network.PathTo(f.host(spec.src_ep),
                                                    p.final_dst))
                   .first;
        }
        if (p.fate == Fate::kDeliver) ++expect_delivered_;
        burst.push_back(Item{spec, p.fate, &it->second});
      }
      bursts_.push_back(std::move(burst));
    }
    return "";
  }

  RungResult Build() {
    RungResult r;
    std::vector<fx::packet::Packet> packets;
    packets.reserve(kBurst);
    for (std::size_t b = 0; b < bursts_.size(); ++b) {
      packets.clear();
      const std::uint32_t span = spans_.Open("ladder.build", b);
      const std::uint64_t a0 = ThreadAllocations();
      const auto t0 = Now();
      for (const Item& item : bursts_[b]) {
        packets.push_back(BuildPacket(item.spec, ++id_));
      }
      r.ns += Now() - t0;
      r.allocs += ThreadAllocations() - a0;
      spans_.Close(span);
      r.units += bursts_[b].size();
    }
    return r;
  }

  // Parse at the source leaf's graph, then signature, per packet.
  std::pair<RungResult, RungResult> ParseAndSignature(Fabric& f) {
    RungResult parse, sig;
    std::vector<fx::packet::Packet> packets;
    std::uint64_t sink = 0;
    for (std::size_t b = 0; b < bursts_.size(); ++b) {
      packets.clear();
      for (const Item& item : bursts_[b]) {
        packets.push_back(BuildPacket(item.spec, ++id_));
      }
      const DeviceId leaf =
          f.topo.leaves[f.model.LeafOf(bursts_[b].front().spec.src_ep)];
      const fx::dataplane::ParseGraph& graph =
          f.network.Find(leaf)->device().pipeline().parser();
      std::uint32_t span = spans_.Open("ladder.parse", b);
      std::uint64_t a0 = ThreadAllocations();
      auto t0 = Now();
      for (const fx::packet::Packet& p : packets) {
        sink += graph.Parse(p).accepted ? 1 : 0;
      }
      parse.ns += Now() - t0;
      parse.allocs += ThreadAllocations() - a0;
      spans_.Close(span);
      span = spans_.Open("ladder.signature", b);
      a0 = ThreadAllocations();
      t0 = Now();
      for (const fx::packet::Packet& p : packets) sink += p.ContentSignature();
      sig.ns += Now() - t0;
      sig.allocs += ThreadAllocations() - a0;
      spans_.Close(span);
      parse.units += packets.size();
      sig.units += packets.size();
    }
    if (sink == 42) std::printf(" ");  // keep the results observable
    return {parse, sig};
  }

  // Rungs 3-5 over bursts [begin, end): every hop of PathTo, grouped by
  // device per hop index.  `process` runs one device's group and reports
  // which members dropped.  Returns a mismatch when a packet's survival
  // differs from the model's verdict, empty otherwise.
  template <class Process>
  std::string Hops(const char* name, Fabric& f, std::size_t begin,
                   std::size_t end, Process process, RungResult& r) {
    std::vector<fx::packet::Packet> packets;
    std::vector<fx::packet::Packet> group;
    std::vector<std::size_t> members;
    std::vector<bool> alive;
    std::vector<bool> dropped;
    group.reserve(kBurst);
    for (std::size_t b = begin; b < end; ++b) {
      const std::vector<Item>& burst = bursts_[b];
      packets.clear();
      for (const Item& item : burst) {
        packets.push_back(BuildPacket(item.spec, ++id_));
      }
      alive.assign(burst.size(), true);
      const std::uint32_t root =
          spans_.Open(std::string("ladder.") + name + ".burst", b);
      for (std::size_t h = 0;; ++h) {
        // Devices at hop h, in first-seen order.
        std::vector<DeviceId> devices;
        for (std::size_t i = 0; i < burst.size(); ++i) {
          if (!alive[i] || h >= burst[i].path->size()) continue;
          const DeviceId d = (*burst[i].path)[h];
          if (std::find(devices.begin(), devices.end(), d) == devices.end()) {
            devices.push_back(d);
          }
        }
        if (devices.empty()) break;
        for (const DeviceId d : devices) {
          members.clear();
          group.clear();
          for (std::size_t i = 0; i < burst.size(); ++i) {
            if (alive[i] && h < burst[i].path->size() &&
                (*burst[i].path)[h] == d) {
              members.push_back(i);
              group.push_back(std::move(packets[i]));
            }
          }
          dropped.assign(group.size(), false);
          fx::runtime::ManagedDevice& device = *f.network.Find(d);
          const std::uint32_t span =
              spans_.Open(std::string("ladder.") + name, b, root);
          const std::uint64_t a0 = ThreadAllocations();
          const auto t0 = Now();
          process(device, std::span<fx::packet::Packet>(group), dropped);
          r.ns += Now() - t0;
          r.allocs += ThreadAllocations() - a0;
          spans_.Close(span);
          r.units += group.size();
          for (std::size_t k = 0; k < members.size(); ++k) {
            packets[members[k]] = std::move(group[k]);
            if (dropped[k]) alive[members[k]] = false;
          }
        }
      }
      spans_.Close(root);
      for (std::size_t i = 0; i < burst.size(); ++i) {
        if (alive[i] != (burst[i].fate == Fate::kDeliver)) {
          return std::string(name) + " rung: burst " + std::to_string(b) +
                 " packet " + std::to_string(i) +
                 (alive[i] ? " survived, model predicts a drop"
                           : " dropped, model predicts delivery");
        }
      }
    }
    return "";
  }

  // Rung 6 over bursts [begin, end).
  void Network(Fabric& f, std::size_t begin, std::size_t end, RungResult& r) {
    for (std::size_t b = begin; b < end; ++b) {
      fx::packet::PacketBatch batch = f.network.AcquireBatch();
      for (const Item& item : bursts_[b]) {
        batch.Push(BuildPacket(item.spec, ++id_));
      }
      const DeviceId from = f.host(bursts_[b].front().spec.src_ep);
      const std::uint32_t span = spans_.Open("ladder.network", b);
      const std::uint64_t a0 = ThreadAllocations();
      const auto t0 = Now();
      f.network.InjectBatch(from, std::move(batch));
      f.sim.Run();
      r.ns += Now() - t0;
      r.allocs += ThreadAllocations() - a0;
      spans_.Close(span);
      r.units += bursts_[b].size();
    }
  }

  // Delivered packets must match the model's count for the whole stream.
  std::string CheckDelivered(const char* rung, std::uint64_t delivered) const {
    if (delivered == expect_delivered_) return "";
    return std::string(rung) + " rung delivered " + std::to_string(delivered) +
           ", model predicts " + std::to_string(expect_delivered_);
  }

  // Sharded plane: the generating thread's InjectBatch cost (steer, slice,
  // enqueue) with two threaded workers behind it.
  RungResult Shards(Fabric& f, std::string& error) {
    RungResult r;
    const std::uint64_t d0 = f.network.stats().delivered;
    for (std::size_t b = 0; b < bursts_.size(); ++b) {
      fx::packet::PacketBatch batch = f.network.AcquireBatch();
      for (const Item& item : bursts_[b]) {
        batch.Push(BuildPacket(item.spec, ++id_));
      }
      const DeviceId from = f.host(bursts_[b].front().spec.src_ep);
      const std::uint32_t span = spans_.Open("ladder.shard_enqueue", b);
      const auto t0 = Now();
      f.network.InjectBatch(from, std::move(batch));
      r.ns += Now() - t0;
      spans_.Close(span);
      r.units += bursts_[b].size();
      if ((b + 1) % 64 == 0) f.network.FlushShards();
    }
    f.network.FlushShards();
    error = CheckDelivered("shard", f.network.stats().delivered - d0);
    return r;
  }

  std::size_t bursts() const { return bursts_.size(); }
  std::size_t packets() const { return bursts_.size() * kBurst; }

  static double Now() {
    return static_cast<double>(SpanRecorder::Now());
  }

 private:
  const Options& options_;
  SpanRecorder& spans_;
  std::vector<std::vector<Item>> bursts_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<DeviceId>>
      paths_;
  std::uint64_t expect_delivered_ = 0;
  std::uint64_t id_ = 1u << 30;
};

struct PlaneCounters {
  double processed = 0, micro = 0, mega = 0, scanned = 0, evictions = 0,
         stale = 0, compiled = 0, interp = 0;
};

PlaneCounters ReadCounters(Fabric& f) {
  PlaneCounters c;
  std::vector<DeviceId> switches = f.topo.spines;
  switches.insert(switches.end(), f.topo.leaves.begin(), f.topo.leaves.end());
  for (const DeviceId id : switches) {
    const fx::arch::Device& d = f.network.Find(id)->device();
    const fx::dataplane::Pipeline& pl = d.pipeline();
    c.processed += d.packets_processed();
    c.micro += pl.flow_cache_hits();
    c.mega += pl.megaflow_hits();
    c.evictions += pl.flow_cache_evictions() + pl.megaflow_evictions();
    c.stale += pl.flow_cache_stale_reclaimed() + pl.megaflow_stale_reclaimed();
    for (const std::string& name : pl.TableNames()) {
      c.scanned += pl.FindTable(name)->lookups_scanned();
    }
  }
  for (const auto& d : f.network.devices()) {
    c.compiled += d->compiled_runs();
    c.interp += d->interp_runs();
  }
  return c;
}

}  // namespace

std::string RunLadder(const Options& options, double e2e_ns_per_pkt,
                      MetricMap& metrics) {
  SpanRecorder spans;
  Ladder ladder(options, spans);
  std::string error = ladder.Prepare();
  if (!error.empty()) return error;

  // Every rung on one CPU, so rungs compare on equal hardware.  The shard
  // rung's workers must not inherit the pin, so it runs after Restore.
  CpuRotation placement;
  placement.PinHere();
  const RungResult build = ladder.Build();
  RungResult parse, signature, pipeline, arch, managed, network, shard;
  // Rungs 3-6 each get a fresh fabric (same set-up, same warm-up, so the
  // same cache state) and run interleaved in chunks of bursts, so a slow
  // spell of the shared machine hits every rung alike.
  std::array<Instance, 4> rung_fabrics;
  for (Instance& inst : rung_fabrics) {
    if (!(error = SetUp(options, inst, false)).empty()) return error;
  }
  Fabric& f = *rung_fabrics[3].fabric;
  std::tie(parse, signature) = ladder.ParseAndSignature(f);
  const auto pipeline_rung = [](fx::runtime::ManagedDevice& d,
                                std::span<fx::packet::Packet> pk,
                                std::vector<bool>& dropped) {
    static std::vector<fx::dataplane::PipelineResult> results;
    results.assign(pk.size(), {});
    d.device().pipeline().ProcessBatch(pk, 0, results);
    for (std::size_t i = 0; i < pk.size(); ++i) dropped[i] = results[i].dropped;
  };
  const auto outcome_rung = [](bool managed_device) {
    return [managed_device](fx::runtime::ManagedDevice& d,
                            std::span<fx::packet::Packet> pk,
                            std::vector<bool>& dropped) {
      static std::vector<fx::arch::ProcessOutcome> outcomes;
      outcomes.assign(pk.size(), {});
      if (managed_device) {
        d.ProcessBatch(pk, 0, outcomes);
      } else {
        d.device().ProcessPacketBatch(pk, 0, outcomes);
      }
      for (std::size_t i = 0; i < pk.size(); ++i) {
        dropped[i] = outcomes[i].pipeline.dropped || pk[i].dropped();
      }
    };
  };
  const PlaneCounters before = ReadCounters(f);
  const std::uint64_t events0 = f.sim.executed_events();
  const std::uint64_t delivered0 = f.network.stats().delivered;
  for (std::size_t b = 0; b < ladder.bursts(); b += kChunkBursts) {
    const std::size_t end = std::min(b + kChunkBursts, ladder.bursts());
    for (const std::string& mismatch :
         {ladder.Hops("pipeline", *rung_fabrics[0].fabric, b, end,
                      pipeline_rung, pipeline),
          ladder.Hops("arch", *rung_fabrics[1].fabric, b, end,
                      outcome_rung(false), arch),
          ladder.Hops("managed", *rung_fabrics[2].fabric, b, end,
                      outcome_rung(true), managed)}) {
      if (!mismatch.empty()) return mismatch;
    }
    ladder.Network(f, b, end, network);
  }
  // Self times are differences between rungs, so every rung must have
  // processed the same packet-hops.
  if (pipeline.units != managed.units || arch.units != managed.units) {
    return "rungs 3-5 processed different packet-hops: pipeline " +
           std::to_string(pipeline.units) + ", arch " +
           std::to_string(arch.units) + ", managed " +
           std::to_string(managed.units);
  }
  const PlaneCounters after = ReadCounters(f);
  const std::uint64_t events = f.sim.executed_events() - events0;
  error = ladder.CheckDelivered("network",
                                f.network.stats().delivered - delivered0);
  if (!error.empty()) return error;
  for (std::size_t i = 0; i < 3; ++i) rung_fabrics[i] = Instance{};

  std::vector<double> recompile_ms, apply_ms, steps;
  {
    // Compiler and runtime replay of the patch-DSL ACL change on leaf 0:
    // IncrementalCompiler::Recompile for the program pair, then the plans
    // through a RuntimeEngine, and back.
    const std::string uri = f.FirewallUri(0);
    const fx::controller::AppRecord* app = f.controller.FindApp(uri);
    if (app == nullptr) return "no app " + uri;
    fx::flexbpf::ProgramIR base = app->program;
    fx::flexbpf::ProgramIR patched = base;
    auto report = fx::compiler::ApplyPatch(
        patched,
        "patch deny_8080\n"
        "on table fw.acl entry 0/0,0/0,8080-8080 -> deny priority 50\n");
    if (!report.ok()) return report.error().ToText();
    fx::compiler::CompiledProgram book = app->compiled;
    const std::vector<fx::runtime::ManagedDevice*> slice = {
        f.network.Find(f.topo.leaves[0])};
    fx::compiler::IncrementalCompiler compiler(f.controller.compile_options(),
                                               &f.metrics);
    fx::runtime::RuntimeEngine engine(&f.sim, &f.metrics);
    for (int i = 0; i < 2 * kReplayPairs; ++i) {
      const bool forward = i % 2 == 0;
      const auto t0 = std::chrono::steady_clock::now();
      auto result = compiler.Recompile(forward ? base : patched,
                                       forward ? patched : base, book, slice);
      const auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) return "recompile: " + result.error().ToText();
      std::size_t n = 0;
      bool applied_ok = true;
      for (auto& [device, plan] : result->plans) {
        n += plan.steps.size();
        engine.ApplyRuntime(*f.network.Find(device), plan,
                            [&applied_ok](const fx::runtime::ApplyReport& r) {
                              applied_ok = applied_ok && r.ok();
                            });
      }
      f.sim.Run();
      const auto t2 = std::chrono::steady_clock::now();
      if (!applied_ok) return "runtime apply failed";
      recompile_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      apply_ms.push_back(
          std::chrono::duration<double, std::milli>(t2 - t1).count());
      steps.push_back(static_cast<double>(n));
      book = std::move(result->compiled);
    }
  }
  rung_fabrics[3] = Instance{};
  // Bare simulator events: Schedule + Run of trivial callbacks, one
  // burst-sized group of events per Run, as the closed loop does.
  double event_ns = 0;
  {
    constexpr std::size_t kRounds = 4096;
    constexpr std::size_t kPerRound = 64;
    fx::sim::Simulator sim;
    std::uint64_t fired = 0;
    const double t0 = Ladder::Now();
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < kPerRound; ++i) {
        sim.Schedule(static_cast<fx::SimDuration>(i), [&fired] { ++fired; });
      }
      sim.Run();
    }
    event_ns = (Ladder::Now() - t0) / (kRounds * kPerRound);
    if (fired != kRounds * kPerRound) return "simulator dropped events";
  }

  placement.Restore();
  {
    Instance inst;
    if (!(error = SetUp(options, inst, true)).empty()) return error;
    Fabric& f = *inst.fabric;
    shard = ladder.Shards(f, error);
    if (!error.empty()) return error;
    const fx::net::ShardedDataPlane& plane = *f.network.sharded();
    double max_pkts = 0, sum_pkts = 0;
    for (std::size_t w = 0; w < plane.workers(); ++w) {
      const auto n = static_cast<double>(plane.WorkerPackets(w));
      max_pkts = std::max(max_pkts, n);
      sum_pkts += n;
    }
    metrics["net.shard_ring_stalls"] = {
        static_cast<double>(plane.TotalRingStalls()), "count"};
    metrics["net.shard_occupancy_hwm"] = {
        static_cast<double>(plane.MaxRingOccupancyHwm()), "items"};
    metrics["net.shard_imbalance"] = {
        sum_pkts > 0 ? max_pkts / (sum_pkts / plane.workers()) : 0, "ratio"};
  }

  const double hops = static_cast<double>(managed.units);
  const double packets = static_cast<double>(ladder.packets());
  const double pipeline_ns = pipeline.ns / hops;
  const double arch_ns = arch.ns / hops;
  const double managed_ns = managed.ns / hops;
  const double network_ns_per_hop = network.ns / hops;
  const double events_per_pkt = static_cast<double>(events) / packets;
  const double transport_ns = network_ns_per_hop - managed_ns;
  const double switch_pkts = after.processed - before.processed;
  const double micro = (after.micro - before.micro) / switch_pkts;
  const double mega = (after.mega - before.mega) / switch_pkts;

  metrics["packet.build_ns"] = {build.per_unit(), "ns"};
  metrics["packet.signature_ns"] = {signature.per_unit(), "ns"};
  metrics["packet.allocs_per_pkt"] = {build.allocs_per_unit(), "allocs"};
  metrics["dataplane.parse_ns"] = {parse.per_unit(), "ns"};
  metrics["dataplane.pipeline_ns"] = {pipeline_ns, "ns"};
  metrics["dataplane.allocs_per_hop"] = {pipeline.allocs_per_unit(), "allocs"};
  metrics["dataplane.micro_hit_ratio"] = {micro, "ratio"};
  metrics["dataplane.mega_hit_ratio"] = {mega, "ratio"};
  metrics["dataplane.slowpath_ratio"] = {std::max(0.0, 1.0 - micro - mega),
                                         "ratio"};
  metrics["dataplane.scanned_per_pkt"] = {
      (after.scanned - before.scanned) / switch_pkts, "lookups"};
  metrics["dataplane.evictions"] = {after.evictions - before.evictions,
                                    "count"};
  metrics["dataplane.stale_reclaimed"] = {after.stale - before.stale, "count"};
  metrics["arch.device_ns"] = {arch_ns - pipeline_ns, "ns"};
  metrics["arch.allocs_per_hop"] = {arch.allocs_per_unit(), "allocs"};
  metrics["flexbpf.exec_ns"] = {managed_ns - arch_ns, "ns"};
  const double runs = (after.compiled - before.compiled) +
                      (after.interp - before.interp);
  metrics["flexbpf.compiled_ratio"] = {
      runs > 0 ? (after.compiled - before.compiled) / runs : 0, "ratio"};
  metrics["runtime.device_ns"] = {managed_ns, "ns"};
  metrics["runtime.allocs_per_hop"] = {managed.allocs_per_unit(), "allocs"};
  metrics["runtime.apply_ms"] = {Median(apply_ms), "ms"};
  metrics["runtime.steps_per_change"] = {Median(steps), "steps"};
  metrics["compiler.recompile_ms"] = {Median(recompile_ms), "ms"};
  metrics["net.transport_ns"] = {transport_ns, "ns"};
  metrics["net.events_per_pkt"] = {events_per_pkt, "events"};
  metrics["net.allocs_per_pkt"] = {network.allocs_per_unit(), "allocs"};
  metrics["net.shard_enqueue_ns"] = {shard.per_unit(), "ns"};
  metrics["sim.event_ns"] = {event_ns, "ns"};

  // The stacked rungs against the end-to-end rung: per packet, the managed
  // device rung over every hop plus the bare cost of the simulator events
  // the network scheduled.  What is left is work inside Network that no
  // rung isolates (hop settle, routing, grouping, stats).
  const double stacked_ns = (managed.ns + event_ns * events) / packets;
  const double remainder = network.ns / packets - stacked_ns;
  metrics["bench.unattributed_ns"] = {remainder, "ns"};

  std::printf("layer ladder: %zu bursts of %zu packets, %.0f packet-hops "
              "(%.2f hops/packet)\n",
              kLadderBursts, kBurst, hops, hops / packets);
  std::printf("  rung                         ns/pkt-hop   self ns/pkt-hop\n");
  std::printf("  3 pipeline                   %10.1f   %10.1f (parse alone "
              "%.1f ns/pkt)\n",
              pipeline_ns, pipeline_ns, parse.per_unit());
  std::printf("  4 arch device                %10.1f   %10.1f\n", arch_ns,
              arch_ns - pipeline_ns);
  std::printf("  5 managed device (flexbpf)   %10.1f   %10.1f\n", managed_ns,
              managed_ns - arch_ns);
  std::printf("  6 network + simulator        %10.1f   %10.1f (%.2f events/pkt, "
              "bare event %.1f ns)\n",
              network_ns_per_hop, transport_ns, events_per_pkt, event_ns);
  std::printf("  per packet: end-to-end rung %.1f ns, stacked rungs "
              "(devices %.1f + events %.1f) %.1f ns, unattributed %.1f ns "
              "(%.1f%%)\n",
              network.ns / packets, managed.ns / packets,
              event_ns * events / packets, stacked_ns, remainder,
              100 * remainder / (network.ns / packets));
  std::printf("  closed loop of the same run: %.1f ns/packet, of which build "
              "%.1f ns and end-to-end rung %.1f ns; %.1f ns is the loop's "
              "own prediction and checking, and run-to-run drift\n",
              e2e_ns_per_pkt, build.per_unit(), network.ns / packets,
              e2e_ns_per_pkt - build.per_unit() - network.ns / packets);

  const auto rollup = spans.Rollup();
  std::printf("span rollup (ladder):\n");
  for (const auto& [name, r] : rollup) {
    std::printf("  %-34s n=%-8llu total %10.3f ms  self %10.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(r.count),
                r.total_ns / 1e6, r.self_ns / 1e6);
  }
  const std::string path = options.out_dir + "/ladder_spans_" +
                           options.workload_name + "_seed" +
                           std::to_string(options.seed) + ".jsonl";
  if (!spans.WriteJsonLines(path)) return "cannot write " + path;
  std::printf("ladder spans written to %s\n", path.c_str());
  return "";
}

}  // namespace perfbench
