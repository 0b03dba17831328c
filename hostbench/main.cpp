// Host wall-clock benchmark of the ftla libraries (README.md).
//
//   host_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans-out FILE.json]
//
// Runs one workload's fixed op list serially and prints, as its last
// line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1. Exit 0 after a completed run, 2 on a usage error.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/thread_pool.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "host_bench: %s\nusage: host_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE.json]\nworkloads:",
               why.c_str());
  for (const auto& w : hostbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

long long parse_int(const std::string& flag, const char* s, long long lo,
                    long long hi) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) {
    usage("bad value for " + flag + ": " + s);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hostbench;
  std::string workload;
  long long seed = -1;
  int seconds = 0;
  int trace = -1;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") seed = parse_int(flag, v, 0, (1LL << 62));
    else if (flag == "--seconds") seconds = static_cast<int>(parse_int(flag, v, 1, 600));
    else if (flag == "--trace") trace = static_cast<int>(parse_int(flag, v, 0, 1));
    else if (flag == "--spans-out") spans_out = v;
    else usage("unknown flag " + flag);
  }
  if (workload.empty() || seed < 0 || seconds == 0 || trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    usage("unknown workload '" + workload + "'");
  }

  // Serial by design: threaded runs spread far more from run to run.
  ftla::common::set_global_threads(1);
  // Pin glibc's mmap threshold at its 128 KiB default instead of letting
  // it grow, so large matrices return to the system when freed and peak
  // RSS tracks live memory; with the growing threshold, heap
  // fragmentation made peak_rss_mb differ by 16 % between seeds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  SpanRecorder recorder;
  SpanRecorder* spans = trace == 1 ? &recorder : nullptr;
  const auto useed = static_cast<std::uint64_t>(seed);
  const OpLoop loop = run_workload(workload, useed, seconds, spans);
  const long long attempted = loop.attempted;

  std::printf("hostbench workload=%s seed=%lld threads=1 ops=%zu passes=%d "
              "seconds=%d trace=%d\n",
              workload.c_str(), seed, loop.times.op_s.size(), kPasses, seconds,
              trace);
  std::printf("failed_share %.9g (%lld of %lld op executions)\n",
              static_cast<double>(loop.failed) / static_cast<double>(attempted),
              loop.failed, attempted);
  for (const std::string& f : loop.failures) std::printf("failure %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (spans == nullptr) {
    std::printf("%s\n", p90_line(loop.times.op_s).c_str());
    metrics = end_to_end_metrics(loop.times);
  } else {
    metrics = layer_metrics(loop, recorder);
    std::printf("self time by span (s, calls):\n");
    for (const SelfTime& row : self_time_table(recorder)) {
      std::printf("  %-44s %12.6f %8lld\n", row.name.c_str(), row.self_s,
                  row.calls);
    }
    if (!spans_out.empty() && !recorder.write_json(spans_out)) {
      std::fprintf(stderr, "host_bench: failed to write %s\n", spans_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result_json(loop.correct, attempted, loop.failed, metrics).c_str());
  return 0;
}
