// Paper-scale virtual-time pin.
//
// The bench/baselines gates price n=1024, where the simulated SM pool's
// queued backlog stays shallow. The paper's figures are made at
// n = 10240-30720, where a TimingOnly run queues thousands of kernels
// ahead of the simulated GPU and the SM timeline holds that whole
// backlog. This test prices three such runs of Enhanced Cholesky and
// compares the makespan (bit for bit, printed with %a), the number of
// GPU kernel launches and the number of DAG tasks against a table that
// was recorded once. A changed entry means the simulator's pricing
// changed; a faster allocator or task graph must leave it untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "obs/metrics.hpp"
#include "sim/profile.hpp"

namespace ftla::abft {
namespace {

struct Pin {
  std::string name;
  bool bulldozer = false;
  int n = 0;
  RuntimeMode runtime = RuntimeMode::Bulk;
  double makespan = 0.0;
  long long launches = 0;
  long long tasks = 0;
};

// Recorded once, with the SM timeline's original delta-map allocator;
// a pricing optimization must not re-record it. On tardis the Auto
// placement puts checksum updating on the CPU at this size, so the DAG
// request falls back to the bulk oracle (no tasks) and prices exactly
// like bulk.
// clang-format off
const std::vector<Pin> kRecorded = {
    {"tardis/20480/bulk", false, 20480, RuntimeMode::Bulk, 0x1.40022aaf7bccdp+3, 98357, 0},
    {"tardis/20480/dag", false, 20480, RuntimeMode::Dag, 0x1.40022aaf7bccdp+3, 98357, 0},
    {"bulldozer64/30720/dag", true, 30720, RuntimeMode::Dag, 0x1.1eb11bd86ebb1p+3, 84904, 43783},
};
// clang-format on

Pin price(const Pin& want) {
  sim::Machine machine(want.bulldozer ? sim::bulldozer64() : sim::tardis(),
                       sim::ExecutionMode::TimingOnly);
  obs::MetricsRegistry metrics;
  CholeskyOptions opt;
  opt.variant = Variant::EnhancedOnline;
  opt.runtime = want.runtime;
  opt.metrics = &metrics;
  const CholeskyResult res = cholesky(machine, nullptr, want.n, opt);
  EXPECT_TRUE(res.success) << want.name << ": " << res.note;

  Pin got = want;
  got.makespan = res.seconds;
  got.launches = 0;
  for (const auto& [cls, st] : machine.stats().gpu) got.launches += st.count;
  got.tasks = metrics.has_counter("runtime.tasks")
                  ? metrics.counter("runtime.tasks")
                  : 0;
  return got;
}

TEST(PaperScalePin, TimingOnlyMakespansMatchRecordedTable) {
  std::string table;
  int mismatches = 0;
  for (const Pin& want : kRecorded) {
    const Pin got = price(want);
    char line[200];
    std::snprintf(line, sizeof line,
                  "%-22s makespan %a  launches %lld  tasks %lld\n",
                  got.name.c_str(), got.makespan, got.launches, got.tasks);
    table += line;
    if (got.makespan != want.makespan || got.launches != want.launches ||
        got.tasks != want.tasks) {
      ++mismatches;
    }
  }
  std::fputs(table.c_str(), stdout);
  EXPECT_EQ(mismatches, 0) << "paper-scale pricing differs from the recorded "
                              "table; actual:\n"
                           << table;
}

}  // namespace
}  // namespace ftla::abft
