// FlexNet end-to-end benchmark.
//
//   flexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Drives the whole stack from outside through public calls: a leaf-spine
// fabric with the infrastructure program on every switch, a firewall on
// every leaf, a tenant extension and a load balancer, all deployed through
// controller::Controller.  Traffic is made here from the seed; the program
// only sees the generated packets and changes.  Every outcome is checked
// against the benchmark's own model (fabric.h).  The last line of standard
// output is one JSON object: correct, attempted, failed and the metrics —
// end-to-end ones with --trace 0, per-layer ones with --trace 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "cpu.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace fx = flexnet;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool ParseWorkload(const std::string& name, Workload& out) {
  if (name == "fabric_hot") {
    out = Workload::kFabricHot;
  } else if (name == "fabric_heavytail") {
    out = Workload::kFabricHeavytail;
  } else if (name == "live_reconfig") {
    out = Workload::kLiveReconfig;
  } else {
    return false;
  }
  return true;
}

// Bursts per pps segment; a whole number of stream rounds and change
// rotations, so every segment sends the same mix.
constexpr std::size_t kSegmentBursts = 80;
// live_reconfig: one app-level change every this many bursts.
constexpr std::size_t kChangeEvery = 4;
// The measuring thread moves to the next CPU at the start of every round
// and every kRotateSegments segments, so every CPU of a shared machine
// gets an equal share of the run.
constexpr std::size_t kRotateSegments = 16;
// An untraced run is kRounds rounds of seconds / kRounds each.  A round
// sets up kSetupsPerRound fresh instances, one alive at a time; the last
// one carries the round's traffic.  setup_s is the median of every set-up
// of the run, so it samples the machine over the whole run rather than one
// stretch of it.
constexpr int kRounds = 8;
constexpr int kSetupsPerRound = 4;

// Round `r`'s stream seed; round 0 uses the run's seed, as the ladder does.
std::uint64_t RoundSeed(std::uint64_t seed, int r) {
  return seed ^ (static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL);
}

struct Tally {
  std::uint64_t changes = 0;
  std::uint64_t changes_failed = 0;
  std::vector<double> change_ms;
  std::map<std::string, std::vector<double>> change_ms_by_kind;
  std::vector<double> patch_ms;
  std::vector<double> plan_ops;
  std::vector<double> modeled_window_us;
};

class Runner {
 public:
  explicit Runner(SpanRecorder* spans) : spans_(spans) {}

  // One round of traffic on `inst`: the closed loop for `seconds`, the
  // changes that leave the rotation at a whole cycle, and the final checks.
  void Round(Instance& inst, bool live, double seconds,
             CpuRotation& rotation) {
    inst_ = &inst;
    ClosedLoop(live, seconds, rotation);
    if (!live) ChangeCycle();
    FinishRotation();
    Driver& d = *inst.driver;
    d.FinalChecks();
    packets_ += d.packets();
    delivered_ += d.delivered();
    modeled_latency_ns_.insert(modeled_latency_ns_.end(),
                               d.modeled_latency_ns().begin(),
                               d.modeled_latency_ns().end());
    if (!d.ok() && mismatch_.empty()) mismatch_ = d.mismatch();
    inst_ = nullptr;
  }

  bool ok() const { return mismatch_.empty(); }
  const std::string& mismatch() const { return mismatch_; }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t delivered() const { return delivered_; }
  const std::vector<double>& modeled_latency_ns() const {
    return modeled_latency_ns_;
  }
  const Tally& tally() const { return tally_; }
  const std::vector<double>& burst_us() const { return burst_us_; }
  const std::vector<double>& seg_pps() const { return seg_pps_; }
  const std::vector<double>& traced_pps() const { return traced_pps_; }
  const std::vector<double>& seg_ns_per_pkt() const { return seg_ns_per_pkt_; }

 private:
  // Applies change number `n` of the rotation.
  void Change(std::size_t n) {
    const ChangeKind kind = kChangeRotation[n % kChangeRotation.size()];
    std::size_t leaf = 0;
    if (auto* hot = dynamic_cast<HotStream*>(inst_->stream.get())) {
      leaf = hot->HostLeaf(n / kChangeRotation.size(), *inst_->fabric);
    } else {
      leaf = (n / kChangeRotation.size()) % inst_->fabric->leaves();
    }
    const std::uint32_t span =
        spans_ ? spans_->Open(std::string("controller.change.") +
                                  ToString(kind), burst_)
               : 0;
    const ChangeResult r = inst_->fabric->ApplyChange(kind, leaf);
    if (spans_) spans_->Close(span);
    ++tally_.changes;
    if (!r.ok) {
      ++tally_.changes_failed;
      inst_->driver->Fail(std::string("change ") + ToString(kind) +
                          " failed: " + r.error);
      return;
    }
    tally_.change_ms.push_back(r.wall_ms);
    tally_.modeled_window_us.push_back(r.modeled_window_us);
    const char* group = (kind == ChangeKind::kEntryAdd ||
                         kind == ChangeKind::kEntryRemove)
                            ? "entry"
                            : ToString(kind);
    tally_.change_ms_by_kind[group].push_back(r.wall_ms);
    if (kind == ChangeKind::kEntryAdd || kind == ChangeKind::kEntryRemove) {
      tally_.patch_ms.push_back(r.patch_ms);
    }
    if (r.plan_ops > 0) {
      tally_.plan_ops.push_back(static_cast<double>(r.plan_ops));
    }
  }

  // One closed-loop burst on the event-driven transport.
  void Burst(bool traced) {
    Driver& d = *inst_->driver;
    if (!traced) {
      burst_us_.push_back(d.SendBurst());
      ++burst_;
      return;
    }
    fx::net::Network& net = inst_->fabric->network;
    const std::uint32_t root = spans_->Open("burst", burst_);
    std::uint32_t s = spans_->Open("packet.build", burst_, root);
    fx::packet::PacketBatch batch = net.AcquireBatch();
    const DeviceId from = d.Prepare(batch);
    spans_->Close(s);
    s = spans_->Open("net.inject_run", burst_, root);
    const auto t0 = Clock::now();
    net.InjectBatch(from, std::move(batch));
    inst_->fabric->sim.Run();
    const auto t1 = Clock::now();
    spans_->Close(s);
    s = spans_->Open("bench.check", burst_, root);
    d.Verify();
    spans_->Close(s);
    spans_->Close(root);
    burst_us_.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++burst_;
  }

  // Throughput phase on the event-driven transport (closed loop, one burst
  // in flight).  With spans on, every other segment is traced and the
  // traced/untraced pps ratio is kept.
  void ClosedLoop(bool live, double seconds, CpuRotation& rotation) {
    const auto start = Clock::now();
    for (std::size_t seg = 0;; ++seg) {
      if (seg > 0 && seg % kRotateSegments == 0) rotation.Next();
      const bool traced = spans_ != nullptr && seg % 2 == 1;
      const std::uint64_t delivered0 = inst_->driver->delivered();
      const auto t0 = Clock::now();
      for (std::size_t b = 0; b < kSegmentBursts; ++b) {
        if (live && b % kChangeEvery == 0) Change(changes_made_++);
        Burst(traced);
      }
      const auto t1 = Clock::now();
      const double pps =
          static_cast<double>(inst_->driver->delivered() - delivered0) /
          Seconds(t0, t1);
      (traced ? traced_pps_ : seg_pps_).push_back(pps);
      if (!traced) seg_ns_per_pkt_.push_back(Seconds(t0, t1) * 1e9 /
                                             (kSegmentBursts * kBurst));
      if (!inst_->driver->ok()) return;
      if (Seconds(start, t1) >= seconds) return;
    }
  }

  // One change rotation after the traffic phase, each change followed by
  // kChangeEvery bursts of the workload's own traffic: a correctness step
  // that checks cached verdicts across every kind of change.
  void ChangeCycle() {
    Driver& d = *inst_->driver;
    for (std::size_t i = 0; i < kChangeRotation.size() && d.ok(); ++i) {
      Change(changes_made_++);
      for (std::size_t b = 0; b < kChangeEvery; ++b) d.SendBurst();
    }
  }

  // Brings the rotation back to a whole number of cycles so the programs
  // end in their initial state and every run ends on the same mix.
  void FinishRotation() {
    while (changes_made_ % kChangeRotation.size() != 0 &&
           inst_->driver->ok()) {
      Change(changes_made_++);
    }
  }

  Instance* inst_ = nullptr;
  SpanRecorder* spans_;
  std::string mismatch_;
  std::uint64_t packets_ = 0;
  std::uint64_t delivered_ = 0;
  std::vector<double> modeled_latency_ns_;
  Tally tally_;
  std::size_t changes_made_ = 0;
  std::uint64_t burst_ = 0;
  std::vector<double> burst_us_;
  std::vector<double> seg_pps_;
  std::vector<double> traced_pps_;
  std::vector<double> seg_ns_per_pkt_;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const MetricMap& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("%-36s %14.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value.first,
                value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Runs `n` set-ups, one instance alive at a time, and appends their
// times; the last instance is left in `inst`.
std::string TimeSetUps(const Options& options, int n, Instance& inst,
                       std::vector<double>& times) {
  for (int i = 0; i < n; ++i) {
    inst = Instance{};
    const std::string error = SetUp(options, inst, false);
    if (!error.empty()) return error;
    times.push_back(inst.setup_s);
  }
  return "";
}

int Run(const Options& options) {
  const int rounds = options.trace ? 1 : kRounds;
  const int setups = options.trace ? 1 : kSetupsPerRound;
  const bool live = options.workload == Workload::kLiveReconfig;
  SpanRecorder spans;
  Runner runner(options.trace ? &spans : nullptr);
  std::vector<double> setup_times;
  double topology_s = 0, deploy_s = 0;
  {
    CpuRotation rotation;
    for (int r = 0; r < rounds && runner.ok(); ++r) {
      rotation.Next();
      Options round = options;
      round.seed = RoundSeed(options.seed, r);
      Instance inst;
      const std::string error = TimeSetUps(round, setups, inst, setup_times);
      if (!error.empty()) {
        std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
        return 2;
      }
      if (r == 0) {
        std::printf("workload %s seed %llu: %zu devices (%zu spines, %zu "
                    "leaves, %zu hosts/leaf), %d rounds of %d set-ups and "
                    "%.2f s of traffic\n",
                    options.workload_name.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    inst.fabric->network.devices().size(),
                    options.size.spines, options.size.leaves,
                    options.size.hosts_per_leaf, rounds, setups,
                    static_cast<double>(options.seconds) / rounds);
      }
      topology_s = inst.topology_s;
      deploy_s = inst.deploy_s;
      runner.Round(inst, live, static_cast<double>(options.seconds) / rounds,
                   rotation);
    }
  }

  const Tally& tally = runner.tally();
  const bool ok = runner.ok();
  const std::uint64_t attempted = runner.packets() + tally.changes;
  std::printf("operations: %llu packets (%llu delivered, 0 failed), "
              "%llu changes (%llu failed); %zu burst-latency samples, "
              "%zu change samples, %zu pps segments\n",
              static_cast<unsigned long long>(runner.packets()),
              static_cast<unsigned long long>(runner.delivered()),
              static_cast<unsigned long long>(tally.changes),
              static_cast<unsigned long long>(tally.changes_failed),
              runner.burst_us().size(), tally.change_ms.size(),
              runner.seg_pps().size());
  if (!ok) std::printf("MISMATCH: %s\n", runner.mismatch().c_str());
  std::printf("spread within the run: pps segments p10 %.0f p50 %.0f p90 "
              "%.0f; burst us p50 %.1f p90 %.1f p99 %.1f\n",
              Percentile(runner.seg_pps(), 10), Percentile(runner.seg_pps(), 50),
              Percentile(runner.seg_pps(), 90),
              Percentile(runner.burst_us(), 50),
              Percentile(runner.burst_us(), 90),
              Percentile(runner.burst_us(), 99));
  std::printf("set-up %.4f s, median of %zu (", Percentile(setup_times, 50),
              setup_times.size());
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    std::printf("%s%.4f", i ? " " : "", setup_times[i]);
  }
  std::printf(")\n");
  // Sim-time figures fixed by the arch cost model and the seed: reference
  // values only, never end-to-end metrics.
  std::printf("modeled (sim time, reference only): delivery latency p50 "
              "%.0f ns p99 %.0f ns; change window p50 %.1f us p99 %.1f us\n",
              Percentile(runner.modeled_latency_ns(), 50),
              Percentile(runner.modeled_latency_ns(), 99),
              Percentile(tally.modeled_window_us, 50),
              Percentile(tally.modeled_window_us, 99));

  MetricMap metrics;
  if (!options.trace) {
    metrics["pps"] = {Percentile(runner.seg_pps(), 50), "1/s"};
    metrics["burst_us_p50"] = {Percentile(runner.burst_us(), 50), "us"};
    metrics["setup_s"] = {Percentile(setup_times, 50), "s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    PrintResult(ok, attempted, tally.changes_failed, metrics);
    return ok ? 0 : 1;
  } else {
    metrics["bench.trace_overhead"] = {
        Percentile(runner.traced_pps(), 50) / Percentile(runner.seg_pps(), 50),
        "ratio"};
    metrics["net.topology_s"] = {topology_s, "s"};
    metrics["controller.deploy_s"] = {deploy_s, "s"};
    for (const char* kind : {"entry", "tenant_admit", "tenant_remove",
                             "function"}) {
      const auto it = tally.change_ms_by_kind.find(kind);
      metrics[std::string("controller.change_ms.") + kind] = {
          it == tally.change_ms_by_kind.end() ? 0 : Percentile(it->second, 50),
          "ms"};
    }
    metrics["net.burst_us_p99"] = {Percentile(runner.burst_us(), 99), "us"};
    metrics["controller.update_ms_p50"] = {Percentile(tally.change_ms, 50),
                                           "ms"};
    metrics["controller.update_ms_p99"] = {Percentile(tally.change_ms, 99),
                                           "ms"};
    metrics["compiler.patch_ms"] = {Percentile(tally.patch_ms, 50), "ms"};
    double ops = 0;
    for (const double v : tally.plan_ops) ops += v;
    metrics["compiler.plan_ops_per_change"] = {
        tally.plan_ops.empty() ? 0 : ops / tally.plan_ops.size(), "ops"};
    const double e2e_ns = Percentile(runner.seg_ns_per_pkt(), 50);
    const std::string ladder = RunLadder(options, e2e_ns, metrics);
    if (!ladder.empty()) {
      std::printf("MISMATCH: ladder: %s\n", ladder.c_str());
    }
    const auto rollup = spans.Rollup();
    std::printf("span rollup (main loop):\n");
    for (const auto& [name, r] : rollup) {
      std::printf("  %-34s n=%-8llu total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ns / 1e6, r.self_ns / 1e6);
    }
    const std::string path = options.out_dir + "/spans_" +
                             options.workload_name + "_seed" +
                             std::to_string(options.seed) + ".jsonl";
    if (!spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("spans written to %s\n", path.c_str());
    PrintResult(ok && ladder.empty(), attempted, tally.changes_failed,
                metrics);
    return ok && ladder.empty() ? 0 : 1;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: flexbench --workload "
               "<fabric_hot|fabric_heavytail|live_reconfig> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload_name = value;
      have_workload = perfbench::ParseWorkload(value, options.workload);
      if (!have_workload) return perfbench::Usage();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_workload || argc % 2 == 0) return perfbench::Usage();
  return perfbench::Run(options);
}
