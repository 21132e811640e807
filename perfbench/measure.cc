#include "perfbench/measure.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace perfbench {
namespace internal {

std::atomic<bool> g_alloc_counting{false};
std::atomic<uint64_t> g_process_allocs{0};
thread_local uint64_t t_thread_allocs = 0;

}  // namespace internal

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const double n = static_cast<double>(samples.size());
  // The slack keeps an exact boundary (1000 samples at q = 0.99) from
  // falling just short through rounding in 1 - q.
  if (!(q > 0.0 && q < 1.0) || n * std::min(q, 1.0 - q) + 1e-9 < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * (n - 1.0);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

bool SameBytes(std::span<const uint8_t> original, std::span<const uint8_t> decoded) {
  return std::equal(original.begin(), original.end(), decoded.begin(), decoded.end());
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

void EnableAllocCounting(bool on) {
  internal::g_alloc_counting.store(on, std::memory_order_relaxed);
}

uint64_t ProcessAllocs() { return internal::g_process_allocs.load(std::memory_order_relaxed); }

uint64_t ThreadAllocs() { return internal::t_thread_allocs; }

}  // namespace perfbench
