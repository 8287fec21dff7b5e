#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() { spans_.reserve(1 << 16); }

std::uint32_t SpanRecorder::NameIndex(const std::string& name) {
  const auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_index_.emplace(name, index);
  return index;
}

std::uint32_t SpanRecorder::Open(const std::string& name, std::uint64_t burst,
                                 std::uint32_t parent) {
  Span span;
  span.name = NameIndex(name);
  span.parent = parent == kNoParent ? 0 : parent + 1;
  span.burst = burst;
  span.start_ns = Now();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::map<std::string, SpanRollup> SpanRecorder::Rollup() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanRollup> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanRollup& r = out[names_[s.name]];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    ++r.count;
    r.total_ns += d;
    r.self_ns += d - child_ns[i];
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"burst\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, names_[s.name].c_str(),
                 s.parent == 0 ? -1LL : static_cast<long long>(s.parent - 1),
                 static_cast<unsigned long long>(s.burst),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
