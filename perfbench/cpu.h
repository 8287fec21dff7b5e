// CPU placement of the measuring thread on a shared machine.
#pragma once

#include <sched.h>

#include <cstddef>
#include <vector>

namespace perfbench {

// Moves the calling thread round-robin over the CPUs the process may use,
// so no single CPU's speed decides a run; restores the original mask when
// destroyed.  Threads started while a single CPU is set would inherit it,
// so no thread may be started between Next() and Restore().
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    moved_ = true;
  }
  // Keeps the calling thread on the CPU it runs on now.
  void PinHere() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    moved_ = true;
  }
  void Restore() {
    if (moved_) (void)sched_setaffinity(0, sizeof(original_), &original_);
    moved_ = false;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool moved_ = false;
};

}  // namespace perfbench
