// Measurement helpers for the repository benchmark: percentiles that refuse
// a tail the sample count cannot support, the byte compare that decides
// whether a round trip was correct, peak RSS, and the heap-allocation
// counter fed by the operator new replacement in alloc_count.cc.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

// A percentile is reported only with at least this many samples beyond it:
// p99 needs 1000 samples, p50 needs 20.
inline constexpr double kMinSamplesBeyond = 10.0;

// The q-quantile (0 < q < 1) of `samples`, interpolated linearly between
// order statistics, or nullopt when fewer than kMinSamplesBeyond samples lie
// beyond it.
std::optional<double> Percentile(std::vector<double> samples, double q);

// Median of `values`; NaN when empty.
double Median(std::vector<double> values);

// True when `decoded` reproduces `original` byte for byte.
bool SameBytes(std::span<const uint8_t> original, std::span<const uint8_t> decoded);

// Peak resident set size (VmHWM) of this process in MiB; 0 if unreadable.
double PeakRssMiB();

// Heap-allocation counter. It counts only while enabled, and only in a
// binary that links alloc_count.cc (the benchmark, not its unit tests).
void EnableAllocCounting(bool on);
uint64_t ProcessAllocs();  // on every thread, while counting was enabled
uint64_t ThreadAllocs();   // on the calling thread, while counting was enabled

namespace internal {

extern std::atomic<bool> g_alloc_counting;
extern std::atomic<uint64_t> g_process_allocs;
extern thread_local uint64_t t_thread_allocs;

// Called by every replaced operator new.
inline void NoteAlloc() {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_process_allocs.fetch_add(1, std::memory_order_relaxed);
    ++t_thread_allocs;
  }
}

}  // namespace internal
}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
