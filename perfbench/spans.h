// In-memory span recorder for the traced run.  The benchmark opens spans
// around its own calls into each layer; nothing inside the program is
// instrumented.  Spans are kept in memory, written out when the run ends,
// and rolled up to per-name self time (duration minus what child spans
// cover).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;    // index into SpanRecorder::names()
  std::uint32_t parent = 0;  // span id + 1 of the parent, 0 = root
  std::uint64_t burst = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanRollup {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  static std::int64_t Now() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Opens a span now and returns its id; parent is an id from Open or
  // kNoParent.
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  std::uint32_t Open(const std::string& name, std::uint64_t burst,
                     std::uint32_t parent = kNoParent);
  void Close(std::uint32_t id) { spans_[id].end_ns = Now(); }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<std::string>& names() const noexcept { return names_; }

  // Per-name totals and self time.  Children of one parent never overlap
  // here (the benchmark is single-threaded), so a parent's self time is
  // its duration minus the sum of its children's durations.
  std::map<std::string, SpanRollup> Rollup() const;

  // Writes every span as one JSON object per line.  Returns false on an
  // I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::uint32_t NameIndex(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_index_;
};

}  // namespace perfbench
