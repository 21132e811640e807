#include "perfbench/layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "perfbench/measure.h"
#include "src/adapt/policy.h"
#include "src/codecs/codec.h"
#include "src/common/crc32.h"
#include "src/common/iobuf.h"
#include "src/hw/device_configs.h"
#include "src/hw/shared_queue.h"
#include "src/svc/wire.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using cdpu::ByteSpan;
using cdpu::trace::NowNs;

// The runtime handoff's p99 needs 1000 samples; runs that replayed fewer
// calls top up with extra model-only jobs.
constexpr size_t kMinHandoffSamples = 1000;
// Device-model round trips (a compress and a decompress job) per client.
constexpr uint64_t kSimRoundTripsPerClient = 256;
// OffloadRequest::ratio_hint's default. The server leaves it unset for fixed
// codecs, so the runtime sizes a decompress job as compressed bytes / 0.5.
constexpr double kDefaultRatioHint = 0.5;

double Us(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

// Times `fn` as one child span of root call `root`; returns microseconds.
template <typename Fn>
double Child(std::vector<LayerSpan>* spans, uint64_t root, const char* name, Fn&& fn) {
  const uint64_t start = NowNs();
  fn();
  const uint64_t end = NowNs();
  spans->push_back({root, name, start, end});
  return Us(start, end);
}

// Model-only jobs (no codec: the runtime's thread handoffs and the device
// model) through a runtime built like the workload's, waited for the way the
// workload's system waits.
class Handoff {
 public:
  explicit Handoff(const WorkloadSpec& spec)
      : future_wait_(spec.system == System::kOffload), runtime_(ModelOnly(spec)) {}
  Handoff(const Handoff&) = delete;
  Handoff& operator=(const Handoff&) = delete;

  // Returns the job's {submit, completion} timestamps.
  std::pair<uint64_t, uint64_t> Run(cdpu::CdpuOp op, uint64_t model_bytes, double ratio_hint,
                                    uint32_t queue_pair) {
    cdpu::OffloadRequest request;
    request.op = op;
    request.model_bytes = model_bytes;
    request.ratio_hint = ratio_hint;
    request.queue_pair = queue_pair;
    if (future_wait_) {
      // `cdpu_cli offload`: Submit, then block on the future.
      const uint64_t start = NowNs();
      runtime_.Submit(std::move(request)).get();
      return {start, NowNs()};
    }
    // The server: callback submission plus an explicit doorbell; the
    // completion hook stamps the end on the runtime's thread.
    done_ns_.store(0, std::memory_order_relaxed);
    request.on_complete = &Handoff::OnComplete;
    request.on_complete_ctx = this;
    const uint64_t start = NowNs();
    runtime_.SubmitCallback(std::move(request));
    runtime_.Flush(queue_pair);
    done_ns_.wait(0, std::memory_order_acquire);
    return {start, done_ns_.load(std::memory_order_acquire)};
  }

 private:
  static cdpu::FleetOptions ModelOnly(const WorkloadSpec& spec) {
    cdpu::FleetOptions options = FleetOptionsFor(spec);
    options.base.codec.clear();
    return options;
  }

  static void OnComplete(const cdpu::OffloadResult&, void* ctx) {
    Handoff* self = static_cast<Handoff*>(ctx);
    self->done_ns_.store(NowNs(), std::memory_order_release);
    self->done_ns_.notify_one();
  }

  const bool future_wait_;
  std::atomic<uint64_t> done_ns_{0};  // before the runtime whose threads write it
  cdpu::FleetRuntime runtime_;
};

class CodecCache {
 public:
  cdpu::Codec* Get(const std::string& name) {
    std::unique_ptr<cdpu::Codec>& codec = codecs_[name];
    if (codec == nullptr) {
      codec = cdpu::MakeCodec(name);
    }
    return codec.get();
  }

 private:
  std::map<std::string, std::unique_ptr<cdpu::Codec>> codecs_;
};

// Both ends of the wire for one frame: the sender's header encode and the
// receiver's parse (Feed copies the bytes in; Next checks both CRCs).
class WireReplay {
 public:
  WireReplay() : parser_(cdpu::svc::kMaxPayloadBytes, &pool_) {}

  // Adds the encode and decode microseconds to *encode_us and *decode_us.
  cdpu::Status Frame(std::vector<LayerSpan>* spans, const cdpu::svc::Frame& frame,
                     ByteSpan payload, double* encode_us, double* decode_us) {
    uint8_t header[cdpu::svc::kHeaderBytes];
    *encode_us += Child(spans, frame.request_id, "wire.encode",
                        [&] { cdpu::svc::EncodeFrameHeader(frame, payload, header); });
    cdpu::svc::Frame parsed;
    cdpu::svc::FrameParser::Event event = cdpu::svc::FrameParser::Event::kNeedMore;
    *decode_us += Child(spans, frame.request_id, "wire.decode", [&] {
      parser_.Feed(ByteSpan(header, sizeof(header)));
      parser_.Feed(payload);
      event = parser_.Next(&parsed);
    });
    if (event != cdpu::svc::FrameParser::Event::kFrame ||
        parsed.payload.size() != payload.size()) {
      return cdpu::Status::CorruptData("a replayed frame did not parse back");
    }
    return cdpu::Status::Ok();
  }

 private:
  cdpu::BufferPool pool_;  // before the parser, which holds its buffers
  cdpu::svc::FrameParser parser_;
};

// Mean simulated latency of the workload's device jobs. Each client's next
// job arrives when its previous one completes on the simulated timeline, and
// sizes and ratios come from the inputs alone (AUTO: a fresh policy engine's
// choice), so the result depends only on the seed and the model.
cdpu::Status SimulateDevice(const WorkloadSpec& spec, const Inputs& inputs, CodecCache* codecs,
                            LayerReport* report) {
  cdpu::adapt::AdaptivePolicyEngine engine{cdpu::adapt::AdaptOptions{}};
  std::vector<double> ratio(inputs.payloads.size(), -1.0);  // < 0: STOREd, no device job
  cdpu::ByteVec out;
  for (size_t p = 0; p < inputs.payloads.size(); ++p) {
    std::string name = spec.codec;
    if (spec.codec == "auto") {
      const cdpu::adapt::AdaptDecision decision = engine.Decide(inputs.payloads[p]);
      if (decision.action == cdpu::adapt::AdaptAction::kStore) {
        continue;
      }
      name = decision.codec;
    }
    cdpu::Codec* codec = codecs->Get(name);
    out.clear();
    if (codec == nullptr || !codec->Compress(inputs.payloads[p], &out).ok()) {
      return cdpu::Status::Internal("device model: cannot compress with " + name);
    }
    ratio[p] = static_cast<double>(out.size()) / static_cast<double>(inputs.payloads[p].size());
  }

  cdpu::SharedCdpuQueue queue(cdpu::Qat8970Config());
  std::vector<cdpu::SimNanos> ready(spec.clients, 0);  // each client's next arrival
  std::vector<uint64_t> next(spec.clients, 0);         // each client's schedule cursor
  std::vector<bool> decompress_due(spec.clients, false);
  const uint64_t target_jobs = 2 * kSimRoundTripsPerClient * spec.clients;
  uint64_t jobs = 0;
  double sim_ns = 0;
  const uint64_t start = NowNs();
  for (uint64_t step = 0; jobs < target_jobs && step < 4 * target_jobs; ++step) {
    const uint32_t c =
        static_cast<uint32_t>(std::min_element(ready.begin(), ready.end()) - ready.begin());
    const size_t p = inputs.PayloadIndex(c, next[c]);
    if (ratio[p] < 0) {
      ++next[c];  // the server answers a STORE on its event loop
      continue;
    }
    const cdpu::CdpuOp op = decompress_due[c] ? cdpu::CdpuOp::kDecompress : cdpu::CdpuOp::kCompress;
    const cdpu::SharedCdpuQueue::Completion done =
        queue.Submit(op, inputs.payloads[p].size(), ratio[p], ready[c]);
    sim_ns += static_cast<double>(done.completion - ready[c]);
    ready[c] = done.completion;
    ++jobs;
    if (decompress_due[c]) {
      ++next[c];
    }
    decompress_due[c] = !decompress_due[c];
  }
  if (jobs == 0) {
    return cdpu::Status::Internal("device model: no job to simulate");
  }
  report->device_model_ns = static_cast<double>(NowNs() - start) / static_cast<double>(jobs);
  report->device_sim_us = sim_ns / static_cast<double>(jobs) / 1e3;
  return cdpu::Status::Ok();
}

}  // namespace

cdpu::Result<LayerReport> ReplayLayers(const WorkloadSpec& spec, const Inputs& inputs,
                                       const std::vector<RootCall>& roots,
                                       uint64_t max_round_trips) {
  namespace svc = cdpu::svc;
  const bool service = spec.system == System::kService;
  const bool auto_codec = spec.codec == "auto";
  uint8_t wire_codec = 0;
  uint8_t wire_level = 0;
  if (!svc::WireCodecFromName(spec.codec, &wire_codec, &wire_level)) {
    return cdpu::Status::InvalidArgument("no wire id for " + spec.codec);
  }
  std::vector<size_t> order;  // compress root of each round trip, earliest first
  for (size_t i = 0; i + 1 < roots.size(); i += 2) {
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return roots[a].start_ns < roots[b].start_ns; });
  if (order.size() > max_round_trips) {
    order.resize(max_round_trips);
  }

  LayerReport report;
  report.spans.reserve(order.size() * 16);
  CodecCache codecs;
  WireReplay wire;
  Handoff handoff(spec);
  cdpu::BufferPool pool;  // pooled codec output, as the engines use it
  cdpu::adapt::AdaptivePolicyEngine engine{cdpu::adapt::AdaptOptions{}};  // the server's options
  std::unique_ptr<cdpu::Codec> deflate = cdpu::MakeCodec("deflate-1");
  cdpu::trace::TraceSinkOptions sink_options;
  sink_options.start_collector = false;
  cdpu::trace::TraceSink sink(sink_options);
  cdpu::trace::TraceSink::Writer* writer = sink.RegisterWriter("replay");
  const uint32_t queue_pairs = FleetOptionsFor(spec).base.queue_pairs;

  std::vector<double> encode_us, decode_us, crc_mbps, decide_us, handoff_us, compress_us,
      decompress_us, path_us;
  uint64_t compress_allocs = 0;
  uint64_t decompress_allocs = 0;
  cdpu::ByteVec probe;
  for (size_t i : order) {
    const RootCall& c = roots[i];
    const RootCall& d = roots[i + 1];
    const std::vector<uint8_t>& payload = inputs.payloads[c.payload];
    const uint32_t tenant = c.client % spec.tenants;
    const uint32_t queue_pair = c.client % queue_pairs;
    double encode = 0;
    double decode = 0;
    double crc = 0;
    double path = 0;

    // The compress call.
    svc::Frame request;
    request.codec = wire_codec;
    request.level = wire_level;
    request.request_id = c.id;
    request.tenant_id = tenant;
    cdpu::Status status = wire.Frame(&report.spans, request, payload, &encode, &decode);
    if (!status.ok()) {
      return status;
    }
    crc += Child(&report.spans, c.id, "wire.crc", [&] { (void)cdpu::Crc32(payload); });
    // Every workload times the AUTO decision on its payloads; only AUTO
    // requests pay it on their path.
    cdpu::adapt::AdaptDecision decision;
    const double decide =
        Child(&report.spans, c.id, "adapt.decide", [&] { decision = engine.Decide(payload, tenant); });
    decide_us.push_back(decide);
    double ratio_hint = kDefaultRatioHint;
    if (auto_codec) {
      path += decide;
      ratio_hint = decision.ratio_estimate;
    }
    uint8_t echo_codec = wire_codec;
    uint8_t echo_level = wire_level;
    cdpu::Codec* codec = nullptr;
    cdpu::IoBuf compressed_buf;
    ByteSpan compressed(payload);  // STOREd: the payload comes back verbatim
    if (!c.stored) {
      codec = codecs.Get(c.codec);
      if (codec == nullptr || !svc::WireCodecFromName(c.codec, &echo_codec, &echo_level)) {
        return cdpu::Status::InvalidArgument("cannot replay codec " + c.codec);
      }
      const auto [start, end] =
          handoff.Run(cdpu::CdpuOp::kCompress, payload.size(), ratio_hint, queue_pair);
      report.spans.push_back({c.id, "runtime.handoff", start, end});
      handoff_us.push_back(Us(start, end));
      path += handoff_us.back();
      bool ok = false;
      const uint64_t allocs = ThreadAllocs();
      const double us = Child(&report.spans, c.id, "codec.compress", [&] {
        EnableAllocCounting(true);
        ok = codec->Compress(payload, &pool, &compressed_buf).ok();
        EnableAllocCounting(false);
      });
      compress_allocs += ThreadAllocs() - allocs;
      if (!ok) {
        return cdpu::Status::Internal("replayed compress failed");
      }
      compress_us.push_back(us);
      path += us;
      compressed = compressed_buf.span();
    }
    {
      // deflate-1 over the same payload: its existing LZ77 / entropy
      // sub-spans land in `sink` under this call's id.
      cdpu::trace::ScopedTraceContext scope(writer, c.id, tenant, 0);
      Child(&report.spans, c.id, "codec.deflate_probe", [&] {
        probe.clear();
        (void)deflate->Compress(payload, &probe);
      });
    }
    sink.CollectOnce();
    svc::Frame response;
    response.type = svc::FrameType::kResponse;
    response.codec = echo_codec;
    response.level = echo_level;
    response.flags = c.stored ? svc::kFlagStored : 0;
    response.request_id = c.id;
    response.tenant_id = tenant;
    status = wire.Frame(&report.spans, response, compressed, &encode, &decode);
    if (!status.ok()) {
      return status;
    }
    if (service) {
      path += encode + decode;
    }
    path_us.push_back(path);

    // The verifying decompress call.
    svc::Frame verify;
    verify.codec = echo_codec;
    verify.level = echo_level;
    verify.flags = svc::kFlagDecompress | (d.stored ? svc::kFlagStored : 0);
    verify.request_id = d.id;
    verify.tenant_id = tenant;
    status = wire.Frame(&report.spans, verify, compressed, &encode, &decode);
    if (!status.ok()) {
      return status;
    }
    crc += Child(&report.spans, d.id, "wire.crc", [&] { (void)cdpu::Crc32(compressed); });
    cdpu::IoBuf plain_buf;
    ByteSpan plain = compressed;  // the stored passthrough echoes it
    if (!d.stored) {
      // The svc runtime sizes the job from the default hint; `cdpu_cli
      // offload` passes the achieved ratio, so the model sees the original.
      const double hint = service ? kDefaultRatioHint
                                  : static_cast<double>(compressed.size()) /
                                        static_cast<double>(payload.size());
      const uint64_t model_bytes = static_cast<uint64_t>(
          std::llround(static_cast<double>(compressed.size()) / std::clamp(hint, 0.05, 1.0)));
      const auto [start, end] =
          handoff.Run(cdpu::CdpuOp::kDecompress, model_bytes, hint, queue_pair);
      report.spans.push_back({d.id, "runtime.handoff", start, end});
      handoff_us.push_back(Us(start, end));
      bool ok = false;
      const uint64_t allocs = ThreadAllocs();
      const double us = Child(&report.spans, d.id, "codec.decompress", [&] {
        EnableAllocCounting(true);
        ok = codec->Decompress(compressed, &pool, &plain_buf).ok();
        EnableAllocCounting(false);
      });
      decompress_allocs += ThreadAllocs() - allocs;
      if (!ok) {
        return cdpu::Status::Internal("replayed decompress failed");
      }
      decompress_us.push_back(us);
      plain = plain_buf.span();
    }
    if (!SameBytes(payload, plain)) {
      ++report.mismatches;
    }
    svc::Frame verified = verify;
    verified.type = svc::FrameType::kResponse;
    status = wire.Frame(&report.spans, verified, plain, &encode, &decode);
    if (!status.ok()) {
      return status;
    }
    encode_us.push_back(encode / 4);
    decode_us.push_back(decode / 4);
    crc_mbps.push_back(static_cast<double>(payload.size() + compressed.size()) / crc);
    ++report.round_trips;
  }

  for (uint64_t k = 0; handoff_us.size() < kMinHandoffSamples; ++k) {
    const size_t bytes = inputs.payloads[k % inputs.payloads.size()].size();
    const auto [start, end] = handoff.Run(cdpu::CdpuOp::kCompress, bytes, kDefaultRatioHint,
                                          static_cast<uint32_t>(k % queue_pairs));
    handoff_us.push_back(Us(start, end));
  }

  sink.Stop();
  std::unordered_map<uint64_t, std::pair<double, double>> sub_spans;  // id -> lz77, entropy
  for (const cdpu::trace::SpanRecord& r : sink.Snapshot()) {
    if (r.phase == cdpu::trace::Phase::kCodecLz77) {
      sub_spans[r.request_id].first += Us(r.start_ns, r.end_ns);
    } else if (r.phase == cdpu::trace::Phase::kCodecEntropy) {
      sub_spans[r.request_id].second += Us(r.start_ns, r.end_ns);
    }
  }
  std::vector<double> lz77_us;
  std::vector<double> entropy_us;
  for (const auto& [id, times] : sub_spans) {
    lz77_us.push_back(times.first);
    entropy_us.push_back(times.second);
  }

  cdpu::Status simulated = SimulateDevice(spec, inputs, &codecs, &report);
  if (!simulated.ok()) {
    return simulated;
  }
  const std::optional<double> handoff_p50 = Percentile(handoff_us, 0.50);
  const std::optional<double> handoff_p99 = Percentile(handoff_us, 0.99);
  if (!handoff_p50 || !handoff_p99) {
    return cdpu::Status::Internal("too few runtime handoff samples");
  }
  report.wire_encode_us = Median(encode_us);
  report.wire_decode_us = Median(decode_us);
  report.wire_crc_mbps = Median(crc_mbps);
  report.adapt_decide_us = Median(decide_us);
  report.handoff_p50_us = *handoff_p50;
  report.handoff_p99_us = *handoff_p99;
  report.codec_compress_us = Median(compress_us);
  report.codec_decompress_us = Median(decompress_us);
  report.codec_compress_allocs =
      compress_us.empty() ? 0 : static_cast<double>(compress_allocs) / compress_us.size();
  report.codec_decompress_allocs =
      decompress_us.empty() ? 0 : static_cast<double>(decompress_allocs) / decompress_us.size();
  report.codec_lz77_us = Median(lz77_us);
  report.codec_entropy_us = Median(entropy_us);
  report.path_us = Median(path_us);
  return report;
}

}  // namespace perfbench
