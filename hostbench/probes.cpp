#include "probes.hpp"

#include <array>
#include <string>

#include "abft/checksum.hpp"
#include "abft/cholesky.hpp"
#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/qr.hpp"
#include "blas/types.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/spd.hpp"
#include "fault/campaign.hpp"
#include "service/fleet_campaign.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"

namespace hostbench {

using namespace ftla;

namespace {

// Seed of every probe input: fixed, so probes do the same work on every
// workload and run seed.
constexpr std::uint64_t kProbeSeed = 0x1ed9e7;

/// Median wall seconds of `reps` calls of `f`.
template <class F>
double median_s(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0));
  }
  return quantile(t, 0.5);
}

Matrix<double> uniform(int rows, int cols, std::uint64_t seed) {
  Matrix<double> a(rows, cols);
  make_uniform(a, seed);
  return a;
}

// Multiply-add rate of independent chains compiled with the library's
// own flags: the ceiling the blas kernels are compared against.
double mul_add_peak_gflops() {
  constexpr int kLanes = 32;
  constexpr long kIters = 4'000'000;
  volatile double va = 0.999999999;
  volatile double vb = 1e-9;
  const double a = va;
  const double b = vb;
  std::array<double, kLanes> acc{};
  for (int j = 0; j < kLanes; ++j) acc[static_cast<std::size_t>(j)] = 1.0 + j;
  const double s = median_s(3, [&] {
    for (long it = 0; it < kIters; ++it) {
      for (double& x : acc) x = x * a + b;
    }
  });
  volatile double sink = 0.0;
  for (double x : acc) sink = sink + x;
  return 2.0 * kLanes * static_cast<double>(kIters) / s / 1e9;
}

// Checksum encode/verify rate of one BxB block, in bytes of block and
// checksum data computed from the sizes (not measured traffic).
void checksum_rates(int b, int reps, std::vector<Metric>& out) {
  Matrix<double> a = uniform(b, b, kProbeSeed);
  Matrix<double> chk(abft::kChecksumRows, b);
  const double bytes =
      8.0 * reps * (static_cast<double>(b) * b + abft::kChecksumRows * b);
  const double enc = median_s(3, [&] {
    for (int r = 0; r < reps; ++r) abft::encode_block(a.view(), chk.view());
  });
  const abft::Tolerance tol{};
  const double ver = median_s(3, [&] {
    for (int r = 0; r < reps; ++r) {
      (void)abft::verify_block_host(a.view(), chk.view(), tol);
    }
  });
  const std::string tag = ".b" + std::to_string(b);
  out.push_back({"abft.encode_gbps" + tag, bytes / enc / 1e9, "GB/s"});
  out.push_back({"abft.verify_gbps" + tag, bytes / ver / 1e9, "GB/s"});
}

void blas_probes(SpanRecorder& spans, std::vector<Metric>& out) {
  double peak = 0.0;
  {
    ScopedSpan span(&spans, "probe.mul_add_peak");
    peak = mul_add_peak_gflops();
  }
  double gemm_rate = 0.0;
  {
    ScopedSpan span(&spans, "probe.blas.gemm.n1024");
    constexpr int n = 1024;
    const Matrix<double> a = uniform(n, n, kProbeSeed);
    const Matrix<double> b = uniform(n, n, kProbeSeed + 1);
    Matrix<double> c(n, n);
    const double s = median_s(1, [&] {
      blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(),
                 0.0, c.view());
    });
    gemm_rate = blas::gemm_flops(n, n, n) / s / 1e9;
  }
  out.push_back({"blas.gemm_gflops.n1024", gemm_rate, "GFLOP/s"});
  {
    ScopedSpan span(&spans, "probe.blas.syrk.b256");
    constexpr int b = 256;
    const Matrix<double> a = uniform(b, b, kProbeSeed);
    Matrix<double> c(b, b);
    const double s = median_s(9, [&] {
      blas::syrk(blas::Uplo::Lower, blas::Trans::No, -1.0, a.view(), 1.0,
                 c.view());
    });
    out.push_back({"blas.syrk_gflops.b256", blas::syrk_flops(b, b) / s / 1e9,
                   "GFLOP/s"});
  }
  {
    // The panel solve of a 1024 matrix at block 256.
    ScopedSpan span(&spans, "probe.blas.trsm.b256");
    constexpr int b = 256;
    constexpr int m = 768;
    Matrix<double> l(b, b);
    make_spd_diag_dominant(l, kProbeSeed);
    blas::potrf(l.view());
    const Matrix<double> b0 = uniform(m, b, kProbeSeed);
    Matrix<double> x = b0;
    const double s = median_s(5, [&] {
      x = b0;
      blas::trsm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::Yes,
                 blas::Diag::NonUnit, 1.0, l.view(), x.view());
    });
    out.push_back({"blas.trsm_gflops.b256",
                   blas::trsm_flops(blas::Side::Right, m, b) / s / 1e9,
                   "GFLOP/s"});
  }
  {
    // A mid-factorization panel update at block 16 (n about 400).
    ScopedSpan span(&spans, "probe.blas.gemm.b16");
    constexpr int m = 384;
    constexpr int n = 16;
    constexpr int k = 192;
    constexpr int reps = 40;
    const Matrix<double> a = uniform(m, k, kProbeSeed);
    const Matrix<double> b = uniform(n, k, kProbeSeed + 1);
    Matrix<double> c(m, n);
    const double s = median_s(5, [&] {
      for (int r = 0; r < reps; ++r) {
        blas::gemm(blas::Trans::No, blas::Trans::Yes, -1.0, a.view(),
                   b.view(), 1.0, c.view());
      }
    });
    out.push_back({"blas.gemm_gflops.b16",
                   reps * static_cast<double>(blas::gemm_flops(m, n, k)) / s / 1e9,
                   "GFLOP/s"});
  }
  out.push_back({"blas.fma_peak_gflops", peak, "GFLOP/s"});
  out.push_back({"blas.gemm_over_peak", gemm_rate / peak, "ratio"});
}

// The verified_n1024 op at fixed input: factor, then the oracle.
void reference_op_probes(SpanRecorder& spans, std::vector<Metric>& out) {
  constexpr int n = 1024;
  Matrix<double> a0(n, n);
  const double gen_s = median_s(3, [&] {
    ScopedSpan span(&spans, "probe.common.make_spd_diag_dominant");
    make_spd_diag_dominant(a0, kProbeSeed);
  });
  Matrix<double> a;
  abft::CholeskyResult res;
  const double factor_s = median_s(2, [&] {
    ScopedSpan span(&spans, "probe.abft.cholesky.n1024");
    a = a0;
    sim::Machine machine(sim::tardis(), sim::ExecutionMode::Numeric);
    abft::CholeskyOptions opt;
    opt.block_size = 256;
    res = abft::cholesky(machine, &a, n, opt);
  });
  const double resid_s = median_s(1, [&] {
    ScopedSpan span(&spans, "probe.blas.cholesky_residual.n1024");
    (void)blas::cholesky_residual(a0.view(), a.view());
  });
  out.push_back({"blas.cholesky_residual_s.n1024", resid_s, "s"});
  out.push_back({"blas.oracle_share", resid_s / (resid_s + factor_s), "ratio"});
  out.push_back({"abft.factor_s.n1024", factor_s, "s"});
  out.push_back({"abft.verified_blocks_per_op",
                 static_cast<double>(res.verified.total()), "count"});
  out.push_back({"common.spd_gen_s.n1024", gen_s, "s"});
}

void small_oracle_probes(SpanRecorder& spans, std::vector<Metric>& out) {
  constexpr int n = 384;
  Matrix<double> a0(n, n);
  make_spd_diag_dominant(a0, kProbeSeed);
  Matrix<double> lu = a0;
  blas::getrf_nopiv(lu.view());
  const double lu_s = median_s(3, [&] {
    ScopedSpan span(&spans, "probe.blas.lu_residual.n384");
    (void)blas::lu_residual(a0.view(), lu.view());
  });
  const Matrix<double> g = uniform(n, n, kProbeSeed);
  Matrix<double> qr = g;
  std::vector<double> tau(static_cast<std::size_t>(n));
  blas::geqrf(qr.view(), tau.data());
  const double qr_s = median_s(3, [&] {
    ScopedSpan span(&spans, "probe.blas.qr_residual.n384");
    (void)blas::qr_residual(g.view(), qr.view(), tau.data());
  });
  out.push_back({"blas.lu_residual_s.n384", lu_s, "s"});
  out.push_back({"blas.qr_residual_s.n384", qr_s, "s"});
}

// Fixed campaign_b16_32 draws, five per algorithm.
void scenario_probes(SpanRecorder& spans, std::vector<Metric>& out) {
  fault::CampaignOptions opt;
  opt.min_blocks = 16;
  opt.max_blocks = 32;
  Rng rng(kProbeSeed);
  std::array<std::vector<double>, 3> per_algo;
  constexpr std::size_t kPerAlgo = 5;
  for (int draw = 0; draw < 1000; ++draw) {
    const fault::Scenario sc = fault::random_scenario(rng, opt);
    auto& t = per_algo[static_cast<std::size_t>(sc.algo)];
    if (t.size() >= kPerAlgo) continue;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(&spans, std::string("probe.fault.run_scenario.") +
                                  fault::to_string(sc.algo));
      (void)fault::run_scenario(sc);
    }
    t.push_back(seconds_since(t0));
    if (per_algo[0].size() + per_algo[1].size() + per_algo[2].size() ==
        3 * kPerAlgo) {
      break;
    }
  }
  for (fault::Algo algo : {fault::Algo::Cholesky, fault::Algo::Lu, fault::Algo::Qr}) {
    out.push_back({std::string("fault.scenario_s.p50.") + fault::to_string(algo),
                   quantile(per_algo[static_cast<std::size_t>(algo)], 0.5), "s"});
  }
}

// TimingOnly pricing at two sizes, a factor 2 apart, on each machine.
void pricing_probes(SpanRecorder& spans, std::vector<Metric>& out) {
  struct Config {
    const char* machine;
    int n;
  };
  constexpr std::array<Config, 4> configs = {{{"tardis", 10240},
                                              {"tardis", 20480},
                                              {"bulldozer64", 15360},
                                              {"bulldozer64", 30720}}};
  double bulk_sum = 0.0;
  double dag_sum = 0.0;
  std::array<double, configs.size()> bulk{};
  for (abft::RuntimeMode rt : {abft::RuntimeMode::Bulk, abft::RuntimeMode::Dag}) {
    const bool dag = rt == abft::RuntimeMode::Dag;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const Config& c = configs[i];
      const std::string tag = std::string(c.machine) + "_" + std::to_string(c.n);
      const double s = median_s(1, [&] {
        ScopedSpan span(&spans, std::string("probe.abft.cholesky.timing.") +
                                    abft::to_string(rt));
        sim::Machine machine(
            std::string(c.machine) == "tardis" ? sim::tardis() : sim::bulldozer64(),
            sim::ExecutionMode::TimingOnly);
        abft::CholeskyOptions opt;
        opt.runtime = rt;
        (void)abft::cholesky(machine, nullptr, c.n, opt);
      });
      (dag ? dag_sum : bulk_sum) += s;
      if (!dag) bulk[i] = s;
      out.push_back({(dag ? "runtime.price_s.dag." : "sim.price_s.bulk.") + tag,
                     s, "s"});
    }
  }
  out.push_back({"runtime.dag_over_bulk", dag_sum / bulk_sum, "ratio"});
  out.push_back({"sim.price_scaling_2x_n", bulk[1] / bulk[0], "ratio"});
}

// Fixed fleet_loss draws, run with causal tracing on, then off.
void fleet_probes(SpanRecorder& spans, std::vector<Metric>& out) {
  constexpr int kScenarios = 200;
  Rng rng(kProbeSeed);
  std::vector<service::FleetScenario> scs;
  for (int i = 0; i < kScenarios; ++i) {
    scs.push_back(service::random_fleet_scenario(rng, {}));
  }
  long long jobs = 0;
  long long trace_spans = 0;
  const auto run_all = [&](bool trace) {
    ScopedSpan span(&spans, trace ? "probe.service.run_fleet_scenario.traced"
                                  : "probe.service.run_fleet_scenario.untraced");
    const Clock::time_point t0 = Clock::now();
    for (const auto& sc : scs) {
      const service::FleetScenarioResult r = service::run_fleet_scenario(sc, trace);
      if (trace) {
        jobs += r.jobs_admitted;
        trace_spans += static_cast<long long>(r.trace_spans.size());
      }
    }
    return seconds_since(t0);
  };
  const double traced = run_all(true);
  const double untraced = run_all(false);
  out.push_back({"service.jobs_per_s", static_cast<double>(jobs) / traced, "1/s"});
  out.push_back({"obs.trace_spans_per_op",
                 static_cast<double>(trace_spans) / kScenarios, "count"});
  out.push_back({"obs.trace_cost_share", (traced - untraced) / traced, "ratio"});
}

// Wall seconds one ScopedSpan costs the traced invocation.
double span_cost_s() {
  SpanRecorder calibration;
  constexpr int kSpans = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&calibration, "fault.run_scenario.cholesky", i);
  }
  return seconds_since(t0) / kSpans;
}

}  // namespace

std::vector<Metric> layer_metrics(const OpLoop& loop, SpanRecorder& spans) {
  std::vector<Metric> out;
  blas_probes(spans, out);
  reference_op_probes(spans, out);
  small_oracle_probes(spans, out);
  checksum_rates(256, 200, out);
  checksum_rates(16, 50000, out);
  scenario_probes(spans, out);
  pricing_probes(spans, out);
  fleet_probes(spans, out);

  long long fired = 0, detected = 0, reran = 0, losses = 0, migrations = 0,
            retries = 0, sdc = 0;
  for (const OpOutcome& o : loop.outcomes) {
    fired += o.faults_fired;
    detected += o.faults_detected;
    reran += o.reran ? 1 : 0;
    losses += o.device_losses;
    migrations += o.migrations;
    retries += o.retries;
    sdc += o.sdc_jobs;
  }
  const double ops = static_cast<double>(loop.outcomes.size());
  const auto count = [](long long v) { return static_cast<double>(v); };
  out.push_back({"fault.faults_fired", count(fired), "count"});
  out.push_back({"fault.faults_detected", count(detected), "count"});
  out.push_back({"fault.detected_share",
                 fired > 0 ? count(detected) / count(fired) : 0.0, "ratio"});
  out.push_back({"fault.rerun_share", ops > 0 ? count(reran) / ops : 0.0, "ratio"});
  out.push_back({"service.device_losses", count(losses), "count"});
  out.push_back({"service.migrations", count(migrations), "count"});
  out.push_back({"service.retries", count(retries), "count"});
  out.push_back({"service.sdc_jobs", count(sdc), "count"});

  long long op_spans = 0;
  for (const Span& s : spans.spans()) op_spans += s.op >= 0 ? 1 : 0;
  out.push_back({"bench.trace_overhead_share",
                 loop.wall_s > 0.0
                     ? count(op_spans) * span_cost_s() / loop.wall_s
                     : 0.0,
                 "ratio"});
  return out;
}

}  // namespace hostbench
