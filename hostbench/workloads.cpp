#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "abft/cholesky.hpp"
#include "blas/lapack.hpp"
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

// The campaign oracle's threshold (fault/campaign.cpp): a residual at or
// above it, or NaN, is a corrupt result.
constexpr double kResidualThreshold = 1.0e-6;

// Seed of the warm-up ops, which must not vary with the run's seed so
// that setup_s measures the same work on every run.
constexpr std::uint64_t kWarmupSeed = 0x5eed;

// Op executions per run second, measured serially on a 4-core AVX-512
// x86-64 KVM guest; a list holds 1/kPasses of them. They only size the
// op list: nothing reads the clock to decide how many ops to run.
constexpr double kVerifiedOpsPerS = 0.8;
constexpr double kCampaignOpsPerS = 18.0;
constexpr double kFleetOpsPerS = 1100.0;
constexpr double kPaperSweepsPerS = 0.45;

int op_count(double per_s, int seconds) {
  return std::max(1, static_cast<int>(std::lround(per_s * seconds / kPasses)));
}

std::uint64_t nonzero(std::uint64_t seed) { return seed != 0 ? seed : 1; }

// --- verified_n1024 ---------------------------------------------------
// Fault-free Enhanced Online-ABFT Cholesky at n=1024 on `tardis` (block
// 256, bulk runtime), checked by blas::cholesky_residual: the ROADMAP
// reference run, dominated by level-3 BLAS and the residual oracle.
class Verified final : public Workload {
 public:
  static constexpr int kN = 1024;

  Verified(std::uint64_t seed, int seconds) {
    SplitMix64 sm(nonzero(seed));
    seeds_.resize(static_cast<std::size_t>(op_count(kVerifiedOpsPerS, seconds)));
    for (auto& s : seeds_) s = sm.next();
  }

  int size() const override { return static_cast<int>(seeds_.size()); }
  std::string describe(int i) const override {
    return "cholesky tardis n=1024 block=256 bulk matrix_seed=" +
           std::to_string(seeds_[static_cast<std::size_t>(i)]);
  }

  void prepare(SpanRecorder* spans) override {
    inputs_.clear();
    for (std::uint64_t s : seeds_) {
      ScopedSpan span(spans, "common.make_spd_diag_dominant");
      Matrix<double> a(kN, kN);
      make_spd_diag_dominant(a, s);
      inputs_.push_back(std::move(a));
    }
  }

  OpOutcome warm_up(SpanRecorder* spans) override { return factor(0, spans); }
  OpOutcome run(int i, SpanRecorder* spans) override {
    return factor(i, spans);
  }

 private:
  OpOutcome factor(int i, SpanRecorder* spans) {
    const Matrix<double>& a0 = inputs_[static_cast<std::size_t>(i)];
    Matrix<double> a = a0;
    sim::Machine machine(sim::tardis(), sim::ExecutionMode::Numeric);
    abft::CholeskyOptions opt;
    opt.block_size = 256;
    opt.runtime = abft::RuntimeMode::Bulk;
    abft::CholeskyResult res;
    {
      ScopedSpan span(spans, "abft.cholesky");
      res = abft::cholesky(machine, &a, kN, opt);
    }
    OpOutcome out;
    out.virtual_s = res.seconds;
    out.reran = res.reruns > 0;
    if (!res.success) {
      out.unexpected = out.broken = true;
      out.why = "not success: " + res.note;
      return out;
    }
    double resid = 0.0;
    {
      ScopedSpan span(spans, "blas.cholesky_residual");
      resid = blas::cholesky_residual(a0.view(), a.view());
    }
    if (!(resid < kResidualThreshold)) {
      out.unexpected = out.broken = true;
      out.why = "oracle reject: residual " + std::to_string(resid);
    }
    return out;
  }

  std::vector<std::uint64_t> seeds_;
  std::vector<Matrix<double>> inputs_;
};

// --- campaign_b16_32 --------------------------------------------------
// Serial fault::run_scenario over random_scenario draws at 16..32
// blocks of 16: Cholesky, LU and QR under faults, reruns and rollbacks,
// on 16-wide tiles, with the LU/QR oracles.
class Campaign final : public Workload {
 public:
  // Scenario shapes (algorithm, variant, recovery, placement, runtime,
  // size, fault rate) and fault arrivals come from this fixed seed; the
  // run seed draws each op's matrix. With shapes from the run seed,
  // ops_per_s differed by 13 % between seeds at 270 ops; with arrivals
  // from it, fault-driven reruns moved op_s.p50 by 14 %, as op times
  // near the median are sparse.
  static constexpr std::uint64_t kShapeSeed = 0xb16;

  Campaign(std::uint64_t seed, int seconds) {
    Rng shapes(kShapeSeed);
    Rng rng(nonzero(seed));
    const int n = op_count(kCampaignOpsPerS, seconds);
    for (int i = 0; i < n; ++i) {
      fault::Scenario sc = fault::random_scenario(shapes, options());
      sc.matrix_seed = rng.next_u64() | 1ULL;
      ops_.push_back(std::move(sc));
    }
  }

  static fault::CampaignOptions options() {
    fault::CampaignOptions opt;
    opt.min_blocks = 16;
    opt.max_blocks = 32;
    return opt;
  }

  int size() const override { return static_cast<int>(ops_.size()); }
  std::string describe(int i) const override {
    std::string s = fault::format_scenario(ops_[static_cast<std::size_t>(i)]);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    return s;
  }
  void prepare(SpanRecorder*) override {}

  OpOutcome warm_up(SpanRecorder* spans) override {
    Rng rng(kWarmupSeed);
    return scenario(fault::random_scenario(rng, options()), spans);
  }
  OpOutcome run(int i, SpanRecorder* spans) override {
    return scenario(ops_[static_cast<std::size_t>(i)], spans);
  }

 private:
  static OpOutcome scenario(const fault::Scenario& sc, SpanRecorder* spans) {
    fault::ScenarioResult r;
    {
      ScopedSpan span(spans, std::string("fault.run_scenario.") +
                                 fault::to_string(sc.algo));
      r = fault::run_scenario(sc);
    }
    OpOutcome out;
    out.virtual_s = r.seconds;
    out.faults_fired = r.faults_fired;
    out.faults_detected = r.faults_detected;
    out.reran = r.reruns > 0;
    const fault::CampaignOptions opt = options();
    if (r.verdict == fault::Verdict::Sdc && sc.variant == opt.guarded) {
      out.unexpected = true;
      out.why = "guarded-variant sdc";
    } else if (r.verdict == fault::Verdict::FailStop && r.faults_fired == 0) {
      out.unexpected = true;
      out.why = "fail-stop with zero faults fired";
    }
    return out;
  }

  std::vector<fault::Scenario> ops_;
};

// --- fleet_loss -------------------------------------------------------
// Serial service::run_fleet_scenario (with causal tracing) over
// random_fleet_scenario draws: small jobs, so the work is fleet
// bookkeeping, placement, checkpoints, migration and tracing.
class Fleet final : public Workload {
 public:
  Fleet(std::uint64_t seed, int seconds) {
    Rng rng(nonzero(seed));
    const service::FleetCampaignOptions opt;
    const int n = op_count(kFleetOpsPerS, seconds);
    for (int i = 0; i < n; ++i) ops_.push_back(service::random_fleet_scenario(rng, opt));
  }

  int size() const override { return static_cast<int>(ops_.size()); }
  std::string describe(int i) const override {
    return service::format_fleet_scenario(ops_[static_cast<std::size_t>(i)]);
  }
  void prepare(SpanRecorder*) override {}

  OpOutcome warm_up(SpanRecorder* spans) override {
    Rng rng(kWarmupSeed);
    return scenario(service::random_fleet_scenario(rng, {}), spans);
  }
  OpOutcome run(int i, SpanRecorder* spans) override {
    return scenario(ops_[static_cast<std::size_t>(i)], spans);
  }

 private:
  static OpOutcome scenario(const service::FleetScenario& sc,
                            SpanRecorder* spans) {
    service::FleetScenarioResult r;
    {
      ScopedSpan span(spans, "service.run_fleet_scenario");
      r = service::run_fleet_scenario(sc, /*collect_trace=*/true);
    }
    OpOutcome out;
    out.virtual_s = r.makespan_s;
    out.faults_fired = r.faults_fired;
    out.faults_detected = r.faults_detected;
    out.device_losses = r.device_losses;
    out.migrations = r.migrations;
    out.retries = r.retries_spent;
    out.sdc_jobs = r.sdc_jobs;
    out.reran = std::any_of(r.jobs.begin(), r.jobs.end(),
                            [](const service::JobResult& j) { return j.reruns > 0; });
    if (r.sdc_jobs > 0 || r.dropped != 0) {
      out.unexpected = true;
      out.why = std::to_string(r.sdc_jobs) + " sdc jobs, " +
                std::to_string(r.dropped) + " dropped";
    }
    return out;
  }

  std::vector<service::FleetScenario> ops_;
};

// --- paper_timing -----------------------------------------------------
// TimingOnly abft::cholesky over the paper's sweep, bulk and DAG: no
// numerics, so the task-graph runtime and the simulator's pricing do
// all the work.
class PaperTiming final : public Workload {
 public:
  struct Config {
    bool bulldozer = false;
    int n = 0;
    abft::RuntimeMode runtime = abft::RuntimeMode::Bulk;
  };

  // Pricing has no random input, so the op list is the same for every
  // seed: whole sweeps in a fixed order. (Seed-shuffled sweeps moved
  // peak_rss_mb by 8 % between seeds through heap fragmentation.)
  explicit PaperTiming(int seconds) {
    std::vector<Config> sweep;
    for (abft::RuntimeMode rt : {abft::RuntimeMode::Bulk, abft::RuntimeMode::Dag}) {
      for (int n = 5120; n <= 20480; n += 2560) sweep.push_back({false, n, rt});
      for (int n = 10240; n <= 30720; n += 5120) sweep.push_back({true, n, rt});
    }
    const int sweeps = op_count(kPaperSweepsPerS, seconds);
    for (int s = 0; s < sweeps; ++s) ops_.insert(ops_.end(), sweep.begin(), sweep.end());
  }

  int size() const override { return static_cast<int>(ops_.size()); }
  std::string describe(int i) const override {
    const Config& c = ops_[static_cast<std::size_t>(i)];
    return std::string(c.bulldozer ? "bulldozer64" : "tardis") +
           " n=" + std::to_string(c.n) + " " + abft::to_string(c.runtime);
  }
  void prepare(SpanRecorder*) override {}

  OpOutcome warm_up(SpanRecorder* spans) override {
    return price({false, 10240, abft::RuntimeMode::Bulk}, spans);
  }
  OpOutcome run(int i, SpanRecorder* spans) override {
    return price(ops_[static_cast<std::size_t>(i)], spans);
  }

 private:
  static OpOutcome price(const Config& c, SpanRecorder* spans) {
    sim::Machine machine(c.bulldozer ? sim::bulldozer64() : sim::tardis(),
                         sim::ExecutionMode::TimingOnly);
    abft::CholeskyOptions opt;
    opt.runtime = c.runtime;
    abft::CholeskyResult res;
    {
      ScopedSpan span(spans, c.runtime == abft::RuntimeMode::Dag
                                 ? "abft.cholesky.timing.dag"
                                 : "abft.cholesky.timing.bulk");
      res = abft::cholesky(machine, nullptr, c.n, opt);
    }
    OpOutcome out;
    out.virtual_s = res.seconds;
    if (!res.success) {
      out.unexpected = out.broken = true;
      out.why = "not success: " + res.note;
    }
    return out;
  }

  std::vector<Config> ops_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "verified_n1024", "campaign_b16_32", "fleet_loss", "paper_timing"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int seconds) {
  if (name == "verified_n1024") return std::make_unique<Verified>(seed, seconds);
  if (name == "campaign_b16_32") return std::make_unique<Campaign>(seed, seconds);
  if (name == "fleet_loss") return std::make_unique<Fleet>(seed, seconds);
  if (name == "paper_timing") return std::make_unique<PaperTiming>(seconds);
  return nullptr;
}

void time_pass(Workload& w, int pass, SpanRecorder* spans, OpLoop& out) {
  const auto n = static_cast<std::size_t>(w.size());
  if (pass == 0) {
    out.times.op_s.assign(n, std::numeric_limits<double>::infinity());
  }
  const Clock::time_point pass0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const int op = static_cast<int>(i);
    OpOutcome o;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan span(spans, "op", op);
      o = w.run(op, spans);
    } catch (const std::exception& e) {
      o.unexpected = o.broken = true;
      o.why = std::string("exception: ") + e.what();
    }
    out.times.op_s[i] = std::min(out.times.op_s[i], seconds_since(t0));
    ++out.attempted;
    if (o.unexpected) ++out.failed;
    if (o.broken) out.correct = false;
    if (pass > 0) continue;
    if (o.unexpected) {
      out.failures.push_back("op " + std::to_string(op) + " " + o.why + " | " +
                             w.describe(op));
    }
    out.times.virtual_s += o.virtual_s;
    out.outcomes.push_back(std::move(o));
  }
  out.wall_s += seconds_since(pass0);
}

OpLoop run_workload(const std::string& name, std::uint64_t seed, int seconds,
                    SpanRecorder* spans) {
  OpLoop out;
  for (int pass = 0; pass < kPasses; ++pass) {
    // A fresh set-up before every pass: the set-ups land some seconds
    // apart, so their median is not one moment of the shared host.
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> w;
    {
      ScopedSpan span(spans, "setup");
      w = make_workload(name, seed, seconds);
      w->prepare(spans);
      if (w->warm_up(spans).broken) out.correct = false;
    }
    out.times.setup_s.push_back(seconds_since(t0));
    time_pass(*w, pass, spans, out);
  }
  return out;
}

}  // namespace hostbench
