// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 sets the workload's system up kInstances times, measures one
// closed-loop window on each, and prints the end-to-end metrics as medians
// over the instances. --trace 1 alternates untraced and traced windows,
// replays recorded calls through each layer's public functions, prints the
// per-layer metrics and writes every span to DIR/<workload>.trace.json.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/measure.h"
#include "perfbench/workloads.h"
#include "src/trace/breakdown.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using cdpu::trace::NowNs;
using cdpu::trace::Phase;

// Systems set up and measured per untraced run. setup_s and every latency
// and throughput figure are medians over them, so one instance that host
// interference or an unlucky thread placement slowed does not move a run.
constexpr int kInstances = 10;
// Verified round trips each measured instance collects at least, so that its
// p99 has 10 samples beyond it.
constexpr uint64_t kMinRoundTrips = 1000;
// Traced run: untraced/traced window pairs, alternated so drift cancels in
// trace.overhead_share; round trips replayed through the layers; system
// spans written to the trace file at most (the breakdown uses all of them).
constexpr int kTracedPairs = 3;
constexpr uint64_t kMinMedianRoundTrips = 20;
constexpr uint64_t kReplayRoundTrips = 500;
constexpr size_t kMaxWrittenSystemSpans = 100000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Keeps every CPU busy while the benchmark runs. In a virtual machine a CPU
// with nothing to run halts, and a thread woken on it then waits for the
// hypervisor to schedule that CPU again: milliseconds on a busy host, which
// swamps the microsecond thread handoffs being measured and changes with
// the host's load from run to run. These threads run at SCHED_IDLE and only
// yield, so any other runnable thread takes their CPU at once (a spin
// without the yield kept woken threads waiting up to a scheduler tick);
// where SCHED_IDLE cannot be set they exit instead of competing.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cpus; ++i) {
      threads_.emplace_back([this] { Spin(); });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  void Spin() {
    sched_param param{};
    if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) {
      sched_yield();
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\nworkloads:");
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Fail(const cdpu::Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

double Per(uint64_t part, uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

// Prints a `name value unit` line per metric, then the result object as the
// last line of standard output. Returns the exit code.
int Report(bool correct, uint64_t attempted, uint64_t failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", m.name.c_str());
      return 1;
    }
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "perfbench: a decompress returned bytes other than the original\n");
  }
  return correct ? 0 : 1;
}

int RunEndToEnd(const WorkloadSpec& spec, const Inputs& inputs, double seconds) {
  std::vector<double> setup_s, compress_p50, compress_p99, decompress_p50, decompress_p99, mbps;
  WindowResult total;
  double peak_rss_mb = 0;
  for (int i = 0; i < kInstances; ++i) {
    const uint64_t start = NowNs();
    cdpu::Result<std::unique_ptr<Target>> target = StartTarget(spec, inputs, nullptr);
    if (!target.ok()) {
      return Fail(target.status());
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    WindowResult w = (*target)->RunWindow(seconds / kInstances, kMinRoundTrips, false);
    if (i == 0) {
      // The process's peak with one system set up and measured. Later
      // instances only add the allocator's per-thread arenas, which settle at
      // a level that differs from run to run.
      peak_rss_mb = PeakRssMiB();
    }
    target->reset();  // stops the system
    const std::optional<double> p[] = {
        Percentile(w.compress_us, 0.50), Percentile(w.compress_us, 0.99),
        Percentile(w.decompress_us, 0.50), Percentile(w.decompress_us, 0.99)};
    for (const std::optional<double>& x : p) {
      if (!x) {
        std::fprintf(stderr, "perfbench: %zu verified round trips are too few for a p99\n",
                     w.compress_us.size());
        return 1;
      }
    }
    compress_p50.push_back(*p[0]);
    compress_p99.push_back(*p[1]);
    decompress_p50.push_back(*p[2]);
    decompress_p99.push_back(*p[3]);
    std::vector<double> slice_mbps;
    for (uint64_t bytes : w.slice_bytes) {
      slice_mbps.push_back(static_cast<double>(bytes) / 1e6 / (kSliceNs / 1e9));
    }
    mbps.push_back(Median(slice_mbps));
    std::printf(
        "instance %d: setup %.4f s, %zu round trips verified in %.3f s, %.2f MB/s, "
        "compress p50 %.1f us p99 %.1f us, decompress p50 %.1f us p99 %.1f us\n",
        i, setup_s.back(), w.compress_us.size(), w.wall_s, mbps.back(), *p[0], *p[1], *p[2],
        *p[3]);
    Append(&total, std::move(w));
  }
  const uint64_t failed = total.failed + total.mismatches;
  std::printf("samples: %zu compress and %zu decompress calls (each instance >= %llu)\n",
              total.compress_us.size(), total.decompress_us.size(),
              static_cast<unsigned long long>(kMinRoundTrips));
  std::printf("error_share %.6f fraction (%llu failed, %llu verify mismatches, %llu round trips)\n",
              Per(failed, total.attempted), static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.mismatches),
              static_cast<unsigned long long>(total.attempted));
  // Tail latency is printed, not reported: on a shared virtual machine the
  // host preempts vCPUs for milliseconds in episodes that last minutes, and
  // across ten seeds the svc-4k-lz4-c1 p99 ranged from 160 us to 5.3 ms.
  std::printf("%-30s %16.4f us\n", "compress_p99_us", Median(compress_p99));
  std::printf("%-30s %16.4f us\n", "decompress_p99_us", Median(decompress_p99));
  const double ratio = total.bytes_in > 0 ? static_cast<double>(total.bytes_kept) /
                                                static_cast<double>(total.bytes_in)
                                          : std::numeric_limits<double>::quiet_NaN();
  return Report(total.mismatches == 0, total.attempted, failed,
                {{"compress_p50_us", Median(compress_p50), "us"},
                 {"decompress_p50_us", Median(decompress_p50), "us"},
                 {"throughput_mbps", Median(mbps), "MB/s"},
                 {"ratio", ratio, "ratio"},
                 {"setup_s", Median(setup_s), "s"},
                 {"peak_rss_mb", peak_rss_mb, "MiB"}});
}

// Writes the benchmark's spans (a root per recorded client call, a child per
// layer call replayed under it) and the traced system's own spans in the
// Chrome trace_event format trace::WriteChromeTrace uses.
cdpu::Status WriteTrace(const std::string& path, const std::vector<RootCall>& roots,
                        const std::vector<LayerSpan>& layers,
                        const std::vector<cdpu::trace::SpanRecord>& system, size_t system_count) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return cdpu::Status::Internal("cannot open " + path);
  }
  uint64_t origin = std::numeric_limits<uint64_t>::max();
  for (const RootCall& r : roots) {
    origin = std::min(origin, r.start_ns);
  }
  for (size_t i = 0; i < system_count; ++i) {
    origin = std::min(origin, system[i].start_ns);
  }
  std::fprintf(f,
               "{\"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"perfbench\"}},\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
               "\"args\": {\"name\": \"system\"}}");
  auto event = [&](const char* name, const char* cat, int pid, uint64_t id, uint64_t start,
                   uint64_t end) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": %d, \"tid\": %llu, \"args\": {\"request_id\": %llu}}",
                 name, cat, static_cast<double>(start - origin) / 1e3,
                 static_cast<double>(end - start) / 1e3, pid, static_cast<unsigned long long>(id),
                 static_cast<unsigned long long>(id));
  };
  for (const RootCall& r : roots) {
    event(r.decompress ? "client.decompress" : "client.compress", "client", 1, r.id, r.start_ns,
          r.end_ns);
  }
  for (const LayerSpan& s : layers) {
    event(s.name, "layer", 1, s.root, s.start_ns, s.end_ns);
  }
  for (size_t i = 0; i < system_count; ++i) {
    const cdpu::trace::SpanRecord& r = system[i];
    event(cdpu::trace::PhaseName(r.phase),
          cdpu::trace::IsRuntimePhase(r.phase) ? "runtime" : "service", 2, r.request_id,
          r.start_ns, r.end_ns);
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  if (std::fclose(f) != 0) {
    return cdpu::Status::Internal("short write to " + path);
  }
  return cdpu::Status::Ok();
}

int RunTraced(const WorkloadSpec& spec, const Inputs& inputs, double seconds,
              const std::string& trace_path) {
  const double window = seconds / (4.0 * kTracedPairs);  // windows take half the run
  cdpu::trace::TraceSink sink;  // sample rate 1: every request of the traced system
  cdpu::Result<std::unique_ptr<Target>> untraced_target = StartTarget(spec, inputs, nullptr);
  if (!untraced_target.ok()) {
    return Fail(untraced_target.status());
  }
  Target& plain = **untraced_target;
  const SystemCounters before = plain.Counters();
  // Heap allocations are counted over the first untraced window only, before
  // the traced system exists: its span collector allocates as it sweeps.
  EnableAllocCounting(true);
  WindowResult untraced = plain.RunWindow(window, kMinMedianRoundTrips, false);
  EnableAllocCounting(false);
  const uint64_t allocs = ProcessAllocs();
  const uint64_t alloc_calls = untraced.calls;

  cdpu::Result<std::unique_ptr<Target>> traced_target = StartTarget(spec, inputs, &sink);
  if (!traced_target.ok()) {
    return Fail(traced_target.status());
  }
  Target& traced_system = **traced_target;
  WindowResult traced;
  for (int i = 0; i < kTracedPairs; ++i) {
    Append(&traced, traced_system.RunWindow(window, kMinMedianRoundTrips, true));
    if (i + 1 < kTracedPairs) {
      Append(&untraced, plain.RunWindow(window, kMinMedianRoundTrips, false));
    }
  }
  const SystemCounters after = plain.Counters();
  plain.Stop();
  traced_system.Stop();
  sink.Stop();
  const std::vector<cdpu::trace::SpanRecord> system_spans = sink.Snapshot();
  cdpu::trace::Breakdown breakdown = cdpu::trace::BuildBreakdown(system_spans, &sink);

  cdpu::Result<LayerReport> replay = ReplayLayers(spec, inputs, traced.roots, kReplayRoundTrips);
  if (!replay.ok()) {
    return Fail(replay.status());
  }
  const LayerReport& layers = *replay;
  const std::optional<double> untraced_p50 = Percentile(untraced.compress_us, 0.50);
  const std::optional<double> traced_p50 = Percentile(traced.compress_us, 0.50);
  if (!untraced_p50 || !traced_p50) {
    std::fprintf(stderr, "perfbench: too few round trips for a median\n");
    return 1;
  }

  const uint64_t compressed = untraced.compress_us.size();
  auto codec_share = [&](const char* codec) {
    auto it = untraced.echoed.find(codec);
    return Per(it == untraced.echoed.end() ? 0 : it->second, compressed);
  };
  auto phase_mean_us = [&](Phase phase) {
    for (const cdpu::trace::PhaseStats& p : breakdown.phases) {
      if (p.phase == phase) {
        return p.mean_us();
      }
    }
    return 0.0;
  };
  const uint64_t pool_hits = after.pool_hits - before.pool_hits;
  const uint64_t pool_misses = after.pool_misses - before.pool_misses;

  // The service-side phases exist only on svc workloads and AUTO profiling
  // only with codec auto, so they are printed here rather than reported.
  if (spec.system == System::kService) {
    std::printf("%-30s %16.4f us\n", "span.wire_decode_us", phase_mean_us(Phase::kWireDecode));
    std::printf("%-30s %16.4f us\n", "span.admission_us", phase_mean_us(Phase::kAdmission));
    if (spec.codec == "auto") {
      std::printf("%-30s %16.4f us\n", "span.adapt_profile_us",
                  phase_mean_us(Phase::kAdaptProfile));
    }
    std::printf("%-30s %16.4f us\n", "span.response_us", phase_mean_us(Phase::kResponse));
  }
  // The runtime phases are contiguous, so their means sum to the mean
  // submit-to-reap latency of the complete chains (fig11_live_breakdown's
  // cross-check).
  std::printf("%-30s %16.4f us\n", "span.phase_sum_us", breakdown.phase_mean_sum_us());
  std::printf("%-30s %16.4f us over %llu complete chains\n", "span.runtime_e2e_us",
              breakdown.e2e_us.empty() ? 0.0 : breakdown.e2e_us.Mean(),
              static_cast<unsigned long long>(breakdown.complete_requests));
  std::printf("replayed %llu round trips; %zu untraced and %zu traced round trips verified\n",
              static_cast<unsigned long long>(layers.round_trips), untraced.compress_us.size(),
              traced.compress_us.size());

  const size_t written = std::min(system_spans.size(), kMaxWrittenSystemSpans);
  cdpu::Status wrote = WriteTrace(trace_path, traced.roots, layers.spans, system_spans, written);
  if (!wrote.ok()) {
    return Fail(wrote);
  }
  std::printf("trace: %s (%zu client calls, %zu layer spans, %zu of %zu system spans)\n",
              trace_path.c_str(), traced.roots.size(), layers.spans.size(), written,
              system_spans.size());

  const uint64_t mismatches = untraced.mismatches + traced.mismatches + layers.mismatches;
  return Report(
      mismatches == 0, untraced.attempted + traced.attempted,
      untraced.failed + traced.failed + untraced.mismatches + traced.mismatches,
      {{"wire.encode_us", layers.wire_encode_us, "us"},
       {"wire.decode_us", layers.wire_decode_us, "us"},
       {"wire.crc_mbps", layers.wire_crc_mbps, "MB/s"},
       {"adapt.decide_us", layers.adapt_decide_us, "us"},
       {"adapt.store_share", Per(untraced.stored, compressed), "fraction"},
       {"adapt.codec_share.lz4", codec_share("lz4"), "fraction"},
       {"adapt.codec_share.snappy", codec_share("snappy"), "fraction"},
       {"adapt.codec_share.zstd-1", codec_share("zstd-1"), "fraction"},
       {"adapt.codec_share.zstd-3", codec_share("zstd-3"), "fraction"},
       {"admission.busy_per_call", Per(untraced.busy_retries, untraced.calls), "count"},
       {"runtime.handoff_p50_us", layers.handoff_p50_us, "us"},
       {"runtime.handoff_p99_us", layers.handoff_p99_us, "us"},
       {"runtime.doorbells_per_job", Per(after.doorbells - before.doorbells, after.jobs - before.jobs),
        "count"},
       {"device.model_ns", layers.device_model_ns, "ns"},
       {"device.sim_us", layers.device_sim_us, "us"},
       {"codec.compress_us", layers.codec_compress_us, "us"},
       {"codec.decompress_us", layers.codec_decompress_us, "us"},
       {"codec.compress_allocs", layers.codec_compress_allocs, "count"},
       {"codec.decompress_allocs", layers.codec_decompress_allocs, "count"},
       {"codec.lz77_us", layers.codec_lz77_us, "us"},
       {"codec.entropy_us", layers.codec_entropy_us, "us"},
       {"pool.miss_share", Per(pool_misses, pool_hits + pool_misses), "fraction"},
       {"process.heap_allocs_per_call", Per(allocs, alloc_calls), "count"},
       {"svc.residual_us", *untraced_p50 - layers.path_us, "us"},
       {"trace.overhead_share", (*traced_p50 - *untraced_p50) / *untraced_p50, "fraction"},
       {"span.queue_submit_us", phase_mean_us(Phase::kQueueSubmit), "us"},
       {"span.queue_engine_us", phase_mean_us(Phase::kQueueEngine), "us"},
       {"span.device_us", phase_mean_us(Phase::kDevice), "us"},
       {"span.codec_us", phase_mean_us(Phase::kCodec), "us"},
       {"span.complete_us", phase_mean_us(Phase::kComplete), "us"},
       {"span.incomplete_chains", static_cast<double>(breakdown.incomplete_requests), "count"}});
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_dir = ".bench_build/traces";
  uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &seed)) {
        return Usage();
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(seconds > 0 && seconds <= 120)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage();
      }
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || !have_seed || seconds <= 0 || trace < 0) {
    return Usage();
  }
  const Inputs inputs = MakeInputs(*spec, seed);
  std::printf("workload %s, seed %llu, %g s, trace %d: %zu payloads of %zu bytes\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed), seconds, trace,
              inputs.payloads.size(), spec->payload_bytes);
  const IdleSpinners spinners;
  if (trace == 0) {
    return RunEndToEnd(*spec, inputs, seconds);
  }
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", trace_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  return RunTraced(*spec, inputs, seconds, trace_dir + "/" + spec->name + ".trace.json");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
