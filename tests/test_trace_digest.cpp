// Sameness pins for the simulator's trace views.
//
// Every case below runs one traced factorization and folds the bytes of
// the three views of its simulated activity into one 64-bit FNV-1a
// digest: the Chrome trace merged with the telemetry events, the
// per-lane trace summary, and the machine time series rendered through
// write_timeseries_json. The expected table was recorded once and is
// never re-recorded by a refactor: a changed digest means a changed
// export. On any mismatch the test prints the complete actual table.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "fault/fault.hpp"
#include "obs/event_sink.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "sim/profile.hpp"
#include "sim/trace_export.hpp"
#include "test_util.hpp"

namespace ftla::abft {
namespace {

std::uint64_t fnv(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr int kN = 192;
constexpr int kBlock = 32;

/// One traced run: a machine with its activity record, the telemetry
/// sink and the time-series store every view reads.
struct Traced {
  explicit Traced(const sim::MachineProfile& profile, sim::ExecutionMode mode,
                  std::size_t limit = obs::SpanStore::kDefaultLimit)
      : spans(limit), machine(profile, mode) {
    machine.set_span_store(&spans);
    machine.set_event_sink(&sink);
  }

  template <typename Options>
  void wire(Options* o) {
    o->event_sink = &sink;
    o->timeseries = &timeseries;
  }

  /// Digest of the Chrome trace, the summary and the time series.
  std::uint64_t digest() {
    std::ostringstream chrome;
    sim::write_chrome_trace(spans, chrome, sink.events());
    std::ostringstream summary;
    sim::print_trace_summary(machine, spans, summary);
    sim::append_machine_timeseries(machine, spans, &timeseries);
    std::ostringstream ts;
    obs::write_timeseries_json(
        obs::build_timeseries_report(timeseries, machine.makespan() / 20.0),
        ts);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv(chrome.str(), h);
    h = fnv(summary.str(), h);
    return fnv(ts.str(), h);
  }

  obs::SpanStore spans;
  sim::Machine machine;
  obs::RingBufferSink sink{1U << 16};
  obs::TimeSeriesStore timeseries;
};

/// The CLI's two-fault plan, retargeted to LU/QR program points as
/// ftla_cli does.
std::vector<fault::FaultSpec> two_faults(bool lu_qr) {
  std::vector<fault::FaultSpec> plan =
      fault::random_plan(2, kN / kBlock, 7);
  if (lu_qr) {
    for (auto& spec : plan) {
      if (spec.op == fault::Op::Syrk) spec.op = fault::Op::Gemm;
      spec.block_row = -1;
      spec.block_col = -1;
    }
  }
  return plan;
}

std::uint64_t run_cholesky(RuntimeMode rt,
                           std::size_t limit = obs::SpanStore::kDefaultLimit) {
  Traced t(sim::test_rig(), sim::ExecutionMode::Numeric, limit);
  CholeskyOptions o;
  o.block_size = kBlock;
  o.runtime = rt;
  // GPU placement: the CPU mirror would fall back to the bulk schedule.
  o.placement = UpdatePlacement::Gpu;
  t.wire(&o);
  Matrix<double> a = test::random_spd(kN, 4242);
  fault::Injector inj(two_faults(false));
  EXPECT_TRUE(cholesky(t.machine, &a, kN, o, &inj).success);
  EXPECT_EQ(inj.fired_count(), 2);
  return t.digest();
}

std::uint64_t run_lu(RuntimeMode rt) {
  Traced t(sim::test_rig(), sim::ExecutionMode::Numeric);
  LuOptions o;
  o.block_size = kBlock;
  o.runtime = rt;
  t.wire(&o);
  Matrix<double> a = test::random_spd(kN, 777);
  fault::Injector inj(two_faults(true));
  EXPECT_TRUE(lu(t.machine, &a, kN, o, &inj).success);
  EXPECT_EQ(inj.fired_count(), 2);
  return t.digest();
}

std::uint64_t run_qr(RuntimeMode rt) {
  Traced t(sim::test_rig(), sim::ExecutionMode::Numeric);
  QrOptions o;
  o.block_size = kBlock;
  o.runtime = rt;
  t.wire(&o);
  Matrix<double> a = test::random_matrix(kN, kN, 909);
  std::vector<double> tau;
  fault::Injector inj(two_faults(true));
  EXPECT_TRUE(qr(t.machine, &a, &tau, kN, o, &inj).success);
  EXPECT_EQ(inj.fired_count(), 2);
  return t.digest();
}

std::uint64_t run_timing_tardis() {
  Traced t(sim::tardis(), sim::ExecutionMode::TimingOnly);
  CholeskyOptions o;
  t.wire(&o);
  EXPECT_TRUE(cholesky(t.machine, nullptr, 4096, o).success);
  return t.digest();
}

std::map<std::string, std::uint64_t> actual_digests() {
  std::map<std::string, std::uint64_t> out;
  for (RuntimeMode rt : {RuntimeMode::Bulk, RuntimeMode::Dag}) {
    const std::string tail = to_string(rt);
    out["cholesky/enhanced/2faults/" + tail] = run_cholesky(rt);
    out["lu/enhanced/2faults/" + tail] = run_lu(rt);
    out["qr/enhanced/2faults/" + tail] = run_qr(rt);
  }
  out["cholesky/timing/tardis4096"] = run_timing_tardis();
  out["cholesky/capped64/bulk"] = run_cholesky(RuntimeMode::Bulk, 64);
  return out;
}

// clang-format off
const std::map<std::string, std::uint64_t> kExpected = {
    {"cholesky/capped64/bulk", 0x31c898ef54bdf28dULL},
    {"cholesky/enhanced/2faults/bulk", 0x9bd145ef4da69ab0ULL},
    {"cholesky/enhanced/2faults/dag", 0x0957de33ba306edaULL},
    {"cholesky/timing/tardis4096", 0xddc7cf6479082deaULL},
    {"lu/enhanced/2faults/bulk", 0xaac864e0a4dae363ULL},
    {"lu/enhanced/2faults/dag", 0x7609e7c6241dad0bULL},
    {"qr/enhanced/2faults/bulk", 0x09b045c64e7a3dc2ULL},
    {"qr/enhanced/2faults/dag", 0x52df098d42432ee0ULL},
};
// clang-format on

TEST(TraceDigest, ViewsMatchRecordedTable) {
  const auto actual = actual_digests();
  bool all_match = actual.size() == kExpected.size();
  for (const auto& [name, h] : actual) {
    const auto it = kExpected.find(name);
    if (it == kExpected.end() || it->second != h) {
      all_match = false;
      ADD_FAILURE() << "digest mismatch: " << name;
    }
  }
  if (!all_match) {
    std::printf("actual table (%zu cases):\n", actual.size());
    for (const auto& [name, h] : actual) {
      std::printf("    {\"%s\", 0x%016llxULL},\n", name.c_str(),
                  static_cast<unsigned long long>(h));
    }
  }
}

}  // namespace
}  // namespace ftla::abft
