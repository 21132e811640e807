// The benchmark's closed-loop workloads and the two systems they drive: the
// compression service (svc::ServiceServer plus one svc::ServiceClient per
// client thread, all in this process) and the offload runtime (FleetRuntime
// driven the way `cdpu_cli offload` drives it). Every compress is verified by
// decompressing what the system returned and comparing the bytes.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/runtime/fleet.h"
#include "src/trace/trace.h"

namespace perfbench {

enum class System { kService, kOffload };
enum class Corpus { kRatio04, kMixed, kSilesia };

struct WorkloadSpec {
  std::string name;
  System system = System::kService;
  uint32_t clients = 1;  // closed-loop threads, one connection each
  uint32_t tenants = 1;  // client c presents as tenant c % tenants
  size_t payload_bytes = 0;
  std::string codec;  // codec factory name, or "auto"
  Corpus corpus = Corpus::kRatio04;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The payloads a workload's clients cycle through, made from the seed alone.
// Client c sends payloads[PayloadIndex(c, k)] in its k-th round trip.
struct Inputs {
  std::vector<std::vector<uint8_t>> payloads;
  uint32_t clients = 1;
  size_t PayloadIndex(uint32_t client, uint64_t k) const {
    return (client + k * clients) % payloads.size();
  }
};
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

// The runtime the workload's system runs on: the server's fleet of one
// qat8970 for svc workloads, `cdpu_cli offload`'s fleet for the offload one.
cdpu::FleetOptions FleetOptionsFor(const WorkloadSpec& spec);

// One client call of a verified round trip, recorded in a traced window. It
// is the root span the layer replay hangs its child spans under.
struct RootCall {
  uint64_t id = 0;  // unique per call: (client + 1) << 40 | call number
  uint32_t client = 0;
  uint32_t payload = 0;  // index into Inputs::payloads
  bool decompress = false;
  bool stored = false;  // STORE bypass, or the passthrough decompress of one
  std::string codec;    // codec the system ran (AUTO: the echoed one)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Throughput is counted per slice of this many nanoseconds of a window.
inline constexpr uint64_t kSliceNs = 100'000'000;

// What the clients observed over one or more windows.
struct WindowResult {
  std::vector<double> compress_us;  // verified round trips only
  std::vector<double> decompress_us;
  uint64_t attempted = 0;   // round trips started
  uint64_t failed = 0;      // round trips with a call that did not return OK
  uint64_t mismatches = 0;  // round trips whose decompress returned other bytes
  uint64_t calls = 0;       // compress + decompress calls issued
  uint64_t busy_retries = 0;
  uint64_t bytes_in = 0;    // original bytes of verified round trips
  uint64_t bytes_kept = 0;  // bytes the compress returned (STOREd: the original)
  uint64_t stored = 0;      // verified round trips answered by the STORE bypass
  std::map<std::string, uint64_t> echoed;  // the others, by the codec that ran
  double wall_s = 0;
  // Original bytes of verified round trips per kSliceNs of the window, by
  // completion time; only whole slices (the last, partial one is dropped).
  std::vector<uint64_t> slice_bytes;
  std::vector<RootCall> roots;  // compress, decompress pairs when recording
};
void Append(WindowResult* into, WindowResult&& from);

// Counters from the system's public snapshots.
struct SystemCounters {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t doorbells = 0;
  uint64_t jobs = 0;
};

// A started, warmed-up system with its clients. Destruction stops it.
class Target {
 public:
  Target() = default;
  virtual ~Target() = default;
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  // Runs every client's closed loop for `seconds`, then on until at least
  // `min_round_trips` round trips were verified (within a cap). Records the
  // calls as root spans when `record` is set.
  virtual WindowResult RunWindow(double seconds, uint64_t min_round_trips, bool record) = 0;
  virtual SystemCounters Counters() const = 0;
  // Stops the system; every span it emitted has reached its sink after this.
  virtual void Stop() = 0;
};

// Constructs and starts the workload's system, connects its clients and runs
// their warm-up round trips: the work setup_s times. `inputs` and `sink`
// (optional; traces every request) must outlive the target.
cdpu::Result<std::unique_ptr<Target>> StartTarget(const WorkloadSpec& spec, const Inputs& inputs,
                                                  cdpu::trace::TraceSink* sink);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
