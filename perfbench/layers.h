// Per-layer timing for the traced run. The benchmark replays recorded client
// calls through each layer's public functions in the order the server runs
// them (request frame, AUTO decision, runtime handoff, codec, response
// frame), timing every call from here as a child span of the call's root
// span, and runs the device model over the workload's sizes with explicit
// closed-loop arrivals. Nothing inside src/ is instrumented for this.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/status.h"

namespace perfbench {

// One public layer call made while replaying root call `root`.
struct LayerSpan {
  uint64_t root = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Medians over the replayed calls unless noted.
struct LayerReport {
  uint64_t round_trips = 0;  // recorded round trips replayed
  uint64_t mismatches = 0;   // replayed decompresses that returned other bytes
  double wire_encode_us = 0;   // EncodeFrameHeader, per frame
  double wire_decode_us = 0;   // FrameParser::Feed + Next, per frame
  double wire_crc_mbps = 0;    // Crc32 over a round trip's original + compressed bytes
  double adapt_decide_us = 0;  // AdaptivePolicyEngine::Decide on the payload
  double handoff_p50_us = 0;   // model-only runtime job, submit -> completion
  double handoff_p99_us = 0;
  double codec_compress_us = 0;  // pooled Codec::Compress with the codec the system ran
  double codec_decompress_us = 0;
  double codec_compress_allocs = 0;  // mean heap allocations per call
  double codec_decompress_allocs = 0;
  double codec_lz77_us = 0;     // deflate-1's LZ77 sub-span over the same payload
  double codec_entropy_us = 0;  // deflate-1's entropy sub-span
  double device_model_ns = 0;   // mean wall cost of one SharedCdpuQueue::Submit
  double device_sim_us = 0;     // mean simulated job latency, closed-loop arrivals
  // Sum of the layer spans on a compress call's path (svc: both frames, the
  // AUTO decision, handoff and codec; offload: handoff and codec).
  double path_us = 0;
  std::vector<LayerSpan> spans;
};

// Replays up to `max_round_trips` of the recorded round trips, earliest
// first. `roots` holds compress, decompress pairs as RunWindow records them.
cdpu::Result<LayerReport> ReplayLayers(const WorkloadSpec& spec, const Inputs& inputs,
                                       const std::vector<RootCall>& roots,
                                       uint64_t max_round_trips);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
