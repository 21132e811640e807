#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "perfbench/measure.h"
#include "src/hw/device_configs.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/svc/wire.h"
#include "src/workload/datagen.h"

namespace perfbench {
namespace {

using cdpu::ByteSpan;
using cdpu::trace::NowNs;

// Round trips per client before a system counts as set up, so pool
// freelists, codec scratch buffers and the AUTO cost model are warm.
constexpr uint64_t kWarmupRoundTrips = 32;
// Input sizes: 2 MiB of ratio-0.4 payloads, 256 mixed-entropy chunks, and
// twelve 512 KiB Silesia-like files cut into chunks.
constexpr size_t kRatioCorpusBytes = 2u << 20;
constexpr size_t kMixedChunks = 256;
constexpr size_t kSilesiaFileBytes = 512u << 10;
// A window still short of its minimum round trips this long after its
// deadline ends anyway; the percentile helper then refuses the tail.
constexpr uint64_t kMaxOvertimeNs = 30'000'000'000ull;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One round trip as its client saw it.
struct RoundTrip {
  bool ok = false;     // both calls returned OK
  bool match = false;  // the decompress returned the original bytes
  bool stored = false;
  uint32_t calls = 0;
  uint32_t busy = 0;
  size_t kept = 0;    // bytes the compress returned
  std::string codec;  // codec the system ran; empty when STOREd
  uint64_t compress_start_ns = 0;
  uint64_t compress_ns = 0;
  uint64_t decompress_start_ns = 0;
  uint64_t decompress_ns = 0;
};

// The closed loop both systems share: each client thread keeps one round
// trip in flight and walks its own payload schedule across windows.
class LoopTarget : public Target {
 public:
  LoopTarget(const WorkloadSpec& spec, const Inputs& inputs)
      : spec_(spec), inputs_(inputs), next_call_(spec.clients, 0) {}

  cdpu::Status Warmup();
  WindowResult RunWindow(double seconds, uint64_t min_round_trips, bool record) override;

 protected:
  virtual RoundTrip Call(uint32_t client, ByteSpan payload) = 0;

  const WorkloadSpec spec_;

 private:
  const Inputs& inputs_;
  std::vector<uint64_t> next_call_;  // per-client schedule cursor
};

cdpu::Status LoopTarget::Warmup() {
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < spec_.clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = 0; i < kWarmupRoundTrips; ++i) {
        const RoundTrip rt = Call(c, inputs_.payloads[inputs_.PayloadIndex(c, next_call_[c]++)]);
        if (!rt.ok || !rt.match) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (bad.load() != 0) {
    return cdpu::Status::Internal(std::to_string(bad.load()) + " warm-up round trips failed");
  }
  return cdpu::Status::Ok();
}

WindowResult LoopTarget::RunWindow(double seconds, uint64_t min_round_trips, bool record) {
  std::vector<WindowResult> per_client(spec_.clients);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  const uint64_t start_ns = NowNs();
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < spec_.clients; ++c) {
    threads.emplace_back([&, c] {
      WindowResult& out = per_client[c];
      out.compress_us.reserve(1u << 14);
      out.decompress_us.reserve(1u << 14);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t call = next_call_[c]++;
        const size_t index = inputs_.PayloadIndex(c, call);
        const std::vector<uint8_t>& payload = inputs_.payloads[index];
        const RoundTrip rt = Call(c, payload);
        const uint64_t slice = (NowNs() - start_ns) / kSliceNs;
        ++out.attempted;
        out.calls += rt.calls;
        out.busy_retries += rt.busy;
        if (!rt.ok) {
          ++out.failed;
          continue;
        }
        if (!rt.match) {
          ++out.mismatches;
          continue;
        }
        out.compress_us.push_back(static_cast<double>(rt.compress_ns) / 1e3);
        out.decompress_us.push_back(static_cast<double>(rt.decompress_ns) / 1e3);
        out.bytes_in += payload.size();
        out.bytes_kept += rt.kept;
        if (out.slice_bytes.size() <= slice) {
          out.slice_bytes.resize(slice + 1, 0);
        }
        out.slice_bytes[slice] += payload.size();
        if (rt.stored) {
          ++out.stored;
        } else {
          ++out.echoed[rt.codec];
        }
        if (record) {
          RootCall root;
          root.id = (uint64_t{c} + 1) << 40 | (2 * call);
          root.client = c;
          root.payload = static_cast<uint32_t>(index);
          root.stored = rt.stored;
          root.codec = rt.codec;
          root.start_ns = rt.compress_start_ns;
          root.end_ns = rt.compress_start_ns + rt.compress_ns;
          out.roots.push_back(root);
          root.id += 1;
          root.decompress = true;
          root.start_ns = rt.decompress_start_ns;
          root.end_ns = rt.decompress_start_ns + rt.decompress_ns;
          out.roots.push_back(std::move(root));
        }
        verified.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const uint64_t give_up_ns = NowNs() + kMaxOvertimeNs;
  while (verified.load(std::memory_order_relaxed) < min_round_trips && NowNs() < give_up_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
  const uint64_t end_ns = NowNs();
  WindowResult result;
  result.slice_bytes.assign((end_ns - start_ns) / kSliceNs, 0);
  for (WindowResult& w : per_client) {
    for (size_t i = 0; i < w.slice_bytes.size() && i < result.slice_bytes.size(); ++i) {
      result.slice_bytes[i] += w.slice_bytes[i];
    }
    w.slice_bytes.clear();
    Append(&result, std::move(w));
  }
  result.wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
  return result;
}

// The configuration bench/svc_closed_loop serves with: a qat8970 behind
// weighted-fair admission for two tenants.
cdpu::svc::ServerOptions ServerOptionsFor(cdpu::trace::TraceSink* sink) {
  cdpu::svc::ServerOptions options;
  options.runtime.device = cdpu::Qat8970Config();
  options.admission.arbitration = cdpu::VfArbitration::kWeightedFair;
  options.admission.expected_tenants = 2;
  options.trace_sink = sink;
  return options;
}

class ServiceTarget final : public LoopTarget {
 public:
  ServiceTarget(const WorkloadSpec& spec, const Inputs& inputs, cdpu::trace::TraceSink* sink)
      : LoopTarget(spec, inputs), server_(ServerOptionsFor(sink)) {}
  ~ServiceTarget() override { Stop(); }

  cdpu::Status Start() {
    cdpu::Status started = server_.Start();
    if (!started.ok()) {
      return started;
    }
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      cdpu::svc::ClientOptions options;
      options.port = server_.port();
      options.tenant = c % spec_.tenants;
      options.max_connections = 1;  // closed loop: one connection per client
      options.busy_retries = 64;    // a storage engine waits BUSY out
      options.busy_backoff_us = 100;
      clients_.push_back(std::make_unique<cdpu::svc::ServiceClient>(options));
    }
    return cdpu::Status::Ok();
  }

  SystemCounters Counters() const override {
    const cdpu::svc::ServiceStats s = server_.Snapshot();
    return {s.pool.hits, s.pool.misses, s.runtime.doorbells, s.runtime.jobs_completed};
  }

  void Stop() override {
    clients_.clear();
    server_.Stop();
  }

 protected:
  RoundTrip Call(uint32_t client, ByteSpan payload) override {
    cdpu::svc::ServiceClient& cl = *clients_[client];
    RoundTrip rt;
    rt.compress_start_ns = NowNs();
    const cdpu::svc::CallResult c = cl.Compress(spec_.codec, payload);
    rt.calls = 1;
    rt.busy = c.busy_retries;
    rt.compress_ns = c.wall_ns;  // first send to final response, BUSY retries included
    if (!c.status.ok()) {
      return rt;
    }
    rt.stored = c.stored();
    rt.kept = c.output.size();
    // Verify with what the server did: STOREd results through the stored
    // passthrough, AUTO results with the codec the response echoes.
    rt.decompress_start_ns = NowNs();
    cdpu::svc::CallResult d;
    if (rt.stored) {
      d = cl.DecompressStored(c.output);
    } else {
      rt.codec = cdpu::svc::WireCodecToName(c.codec, c.level);
      d = cl.Decompress(rt.codec, c.output);
    }
    rt.calls = 2;
    rt.busy += d.busy_retries;
    rt.decompress_ns = d.wall_ns;
    if (!d.status.ok()) {
      return rt;
    }
    rt.ok = true;
    rt.match = SameBytes(payload, d.output.span());
    return rt;
  }

 private:
  cdpu::svc::ServiceServer server_;
  std::vector<std::unique_ptr<cdpu::svc::ServiceClient>> clients_;
};

class OffloadTarget final : public LoopTarget {
 public:
  OffloadTarget(const WorkloadSpec& spec, const Inputs& inputs, cdpu::trace::TraceSink* sink)
      : LoopTarget(spec, inputs), runtime_(WithSink(FleetOptionsFor(spec), sink)) {}
  ~OffloadTarget() override { Stop(); }

  SystemCounters Counters() const override {
    const cdpu::RuntimeStats s = runtime_.Snapshot().merged;
    return {0, 0, s.doorbells, s.jobs_completed};
  }

  void Stop() override { runtime_.Shutdown(); }

 protected:
  // As `cdpu_cli offload` does it: Submit(...).get() for the compress, then
  // for the decompress of its output, with no explicit doorbell flush.
  RoundTrip Call(uint32_t client, ByteSpan payload) override {
    RoundTrip rt;
    const uint32_t queue_pair = client % runtime_.options().base.queue_pairs;
    cdpu::OffloadRequest compress;
    compress.op = cdpu::CdpuOp::kCompress;
    compress.input = payload;
    compress.queue_pair = queue_pair;
    rt.compress_start_ns = NowNs();
    const cdpu::OffloadResult c = runtime_.Submit(std::move(compress)).get();
    rt.compress_ns = NowNs() - rt.compress_start_ns;
    rt.calls = 1;
    if (!c.status.ok()) {
      return rt;
    }
    rt.codec = c.codec_used.empty() ? spec_.codec : c.codec_used;
    rt.kept = c.output_view().size();
    cdpu::OffloadRequest decompress;
    decompress.op = cdpu::CdpuOp::kDecompress;
    decompress.codec = c.codec_used;
    decompress.input = c.output_view();
    decompress.ratio_hint = c.ratio;
    decompress.queue_pair = queue_pair;
    rt.decompress_start_ns = NowNs();
    const cdpu::OffloadResult d = runtime_.Submit(std::move(decompress)).get();
    rt.decompress_ns = NowNs() - rt.decompress_start_ns;
    rt.calls = 2;
    if (!d.status.ok()) {
      return rt;
    }
    rt.ok = true;
    rt.match = SameBytes(payload, d.output_view());
    return rt;
  }

 private:
  static cdpu::FleetOptions WithSink(cdpu::FleetOptions options, cdpu::trace::TraceSink* sink) {
    options.base.trace_sink = sink;
    return options;
  }

  cdpu::FleetRuntime runtime_;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"svc-4k-lz4-c1", System::kService, 1, 1, 4096, "lz4", Corpus::kRatio04},
      {"svc-64k-zstd1-c2", System::kService, 2, 2, 65536, "zstd-1", Corpus::kRatio04},
      {"svc-mixed-auto-c4", System::kService, 4, 2, 16384, "auto", Corpus::kMixed},
      {"offload-silesia-deflate1-t4", System::kOffload, 4, 1, 65536, "deflate-1",
       Corpus::kSilesia},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.clients = spec.clients;
  const uint64_t base = SplitMix64(seed);
  switch (spec.corpus) {
    case Corpus::kRatio04: {
      const size_t count = std::max<size_t>(1, kRatioCorpusBytes / spec.payload_bytes);
      for (size_t i = 0; i < count; ++i) {
        inputs.payloads.push_back(
            cdpu::GenerateWithRatio(0.4, spec.payload_bytes, SplitMix64(base + i)));
      }
      break;
    }
    case Corpus::kMixed:
      for (cdpu::MixedChunk& chunk :
           cdpu::GenerateMixedCorpus(kMixedChunks, spec.payload_bytes, base)) {
        inputs.payloads.push_back(std::move(chunk.data));
      }
      break;
    case Corpus::kSilesia:
      for (const cdpu::CorpusFile& file : cdpu::SilesiaLikeCorpus(kSilesiaFileBytes, base)) {
        for (size_t off = 0; off + spec.payload_bytes <= file.data.size();
             off += spec.payload_bytes) {
          inputs.payloads.emplace_back(file.data.begin() + static_cast<std::ptrdiff_t>(off),
                                       file.data.begin() +
                                           static_cast<std::ptrdiff_t>(off + spec.payload_bytes));
        }
      }
      break;
  }
  return inputs;
}

cdpu::FleetOptions FleetOptionsFor(const WorkloadSpec& spec) {
  cdpu::FleetOptions options;
  cdpu::FleetDeviceSpec device;
  device.config = cdpu::Qat8970Config();
  device.name = device.config.name;
  if (spec.system == System::kOffload) {
    // `cdpu_cli offload <codec> --device=qat8970`: 4 queue pairs, batch 8,
    // one engine thread per client up to the card's three engines.
    options.base.codec = spec.codec;
    options.base.queue_pairs = 4;
    options.base.batch_size = 8;
    device.engine_threads = std::min(spec.clients, device.config.engines);
  } else {
    // ServiceServer's fleet of one, built from ServerOptions::runtime.
    options.base.device = device.config;
  }
  options.devices.push_back(std::move(device));
  return options;
}

void Append(WindowResult* into, WindowResult&& from) {
  into->compress_us.insert(into->compress_us.end(), from.compress_us.begin(),
                           from.compress_us.end());
  into->decompress_us.insert(into->decompress_us.end(), from.decompress_us.begin(),
                             from.decompress_us.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->mismatches += from.mismatches;
  into->calls += from.calls;
  into->busy_retries += from.busy_retries;
  into->bytes_in += from.bytes_in;
  into->bytes_kept += from.bytes_kept;
  into->stored += from.stored;
  for (const auto& [codec, count] : from.echoed) {
    into->echoed[codec] += count;
  }
  into->wall_s += from.wall_s;
  into->slice_bytes.insert(into->slice_bytes.end(), from.slice_bytes.begin(),
                           from.slice_bytes.end());
  into->roots.insert(into->roots.end(), std::make_move_iterator(from.roots.begin()),
                     std::make_move_iterator(from.roots.end()));
}

cdpu::Result<std::unique_ptr<Target>> StartTarget(const WorkloadSpec& spec, const Inputs& inputs,
                                                  cdpu::trace::TraceSink* sink) {
  if (spec.system == System::kService) {
    auto target = std::make_unique<ServiceTarget>(spec, inputs, sink);
    cdpu::Status status = target->Start();
    if (status.ok()) {
      status = target->Warmup();
    }
    if (!status.ok()) {
      return status;
    }
    return std::unique_ptr<Target>(std::move(target));
  }
  auto target = std::make_unique<OffloadTarget>(spec, inputs, sink);
  cdpu::Status status = target->Warmup();
  if (!status.ok()) {
    return status;
  }
  return std::unique_ptr<Target>(std::move(target));
}

}  // namespace perfbench
