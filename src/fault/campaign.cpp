#include "fault/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <memory>
#include <iostream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "blas/lapack.hpp"
#include "blas/qr.hpp"
#include "common/fp.hpp"
#include "common/spd.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "fault/process.hpp"
#include "obs/event_sink.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"

namespace ftla::fault {
namespace {

/// The oracle's pass/fail line. Injected magnitudes are macroscopic
/// (>= 1e3, or bit flips anchored in the high mantissa / exponent), so
/// any uncorrected corruption lands orders of magnitude above this.
constexpr double kResidualThreshold = 1.0e-6;

Verdict classify(const abft::CholeskyResult& res, double residual) {
  if (!res.success) return Verdict::FailStop;
  // NaN-safe: a NaN/Inf residual must read as corrupt, and NaN fails
  // every comparison, so test "residual < threshold" and invert.
  if (!(residual < kResidualThreshold)) return Verdict::Sdc;
  if (res.reruns > 0) return Verdict::Rerun;
  if (res.rollbacks > 0) return Verdict::RolledBack;
  return Verdict::Corrected;
}

}  // namespace

const char* to_string(Algo a) {
  switch (a) {
    case Algo::Cholesky: return "cholesky";
    case Algo::Lu: return "lu";
    case Algo::Qr: return "qr";
  }
  return "?";
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Corrected: return "corrected";
    case Verdict::RolledBack: return "rolled_back";
    case Verdict::Rerun: return "rerun";
    case Verdict::FailStop: return "fail_stop";
    case Verdict::Sdc: return "sdc";
  }
  return "?";
}

ScenarioResult run_scenario(const Scenario& sc) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::Numeric);
  const int n = sc.n;

  Matrix<double> a(n, n);
  if (sc.algo == Algo::Qr) {
    make_uniform(a, sc.matrix_seed);
  } else {
    make_spd_diag_dominant(a, sc.matrix_seed);
  }
  const Matrix<double> pristine = a;

  Injector inj(sc.plan, EccModel{sc.ecc});
  // Attach the clock here rather than relying on the driver's telemetry
  // layer (which only wires it when an event sink / metrics registry is
  // present): the arrival process below is driven by virtual time.
  inj.set_clock([&m] { return m.host_now(); });

  FaultProcess* proc = nullptr;
  std::unique_ptr<FaultProcess> proc_storage;
  if (sc.mtbf_s > 0.0) {
    ProcessConfig pc;
    pc.mtbf_s = sc.mtbf_s;
    pc.seed = sc.fault_seed;
    pc.max_arrivals = sc.max_arrivals;
    // LU/QR geometry differs from blocked Cholesky's lower triangle;
    // let those drivers' own default-target logic place the strike.
    pc.explicit_blocks = (sc.algo == Algo::Cholesky);
    proc_storage = std::make_unique<FaultProcess>(pc, sc.nblocks());
    proc = proc_storage.get();
    inj.attach_process(proc);
  }

  // Transfer-corruption hook: planned specs replay by copy ordinal;
  // process arrivals come back as skeletons (elem_row < 0) that we
  // concretize from the in-flight copy's shape. The hook runs after the
  // numeric copy, so flipping destination bits IS mid-PCIe corruption:
  // the source stays intact and no source-side verification saw it.
  int transfer_faults = 0;
  Rng xfer_rng(sc.fault_seed ^ 0x7f4a7c15ULL);
  m.set_transfer_hook([&](const sim::TransferCtx& ctx) {
    auto specs = inj.take_transfer(ctx.seq, ctx.end, ctx.armed);
    if (std::getenv("FTLA_CAMPAIGN_DEBUG") != nullptr) {
      std::fprintf(stderr,
                   "xfer name=%s seq=%lld h2d=%d %dx%d ld=%d off=%lld "
                   "armed=%d hits=%zu t=%.4e\n",
                   ctx.name, static_cast<long long>(ctx.seq),
                   ctx.h2d ? 1 : 0, ctx.rows, ctx.cols, ctx.ld,
                   static_cast<long long>(ctx.dev_off),
                   ctx.armed ? 1 : 0, specs.size(), ctx.end);
    }
    transfer_faults +=
        strike_transfer(inj, specs, ctx.data, ctx.rows, ctx.cols, ctx.ld,
                        ctx.dev_off, n, xfer_rng, proc);
  });

  // A scratch registry activates the drivers' telemetry layer, which is
  // what correlates corrections back to injections (mark_detected) —
  // without it every campaign run would report zero detections.
  obs::MetricsRegistry scratch_metrics;
  // FTLA_CAMPAIGN_DEBUG=1 streams the full event log to stderr — the
  // fastest way to triage a replayed failure plan.
  std::unique_ptr<obs::JsonlStreamSink> dbg_sink;
  if (std::getenv("FTLA_CAMPAIGN_DEBUG") != nullptr) {
    dbg_sink = std::make_unique<obs::JsonlStreamSink>(std::cerr);
  }

  abft::CholeskyResult res;
  std::vector<double> tau;
  switch (sc.algo) {
    case Algo::Cholesky: {
      abft::CholeskyOptions o;
      o.variant = sc.variant;
      o.block_size = sc.block;
      o.verify_interval = sc.verify_interval;
      o.placement = sc.placement;
      o.runtime = sc.runtime;
      o.recovery = sc.recovery;
      o.checkpoint_interval = sc.checkpoint_interval;
      o.transfer_guard = sc.transfer_guard;
      o.metrics = &scratch_metrics;
      o.event_sink = dbg_sink.get();
      res = abft::cholesky(m, &a, n, o, &inj);
      break;
    }
    case Algo::Lu: {
      abft::LuOptions o;
      o.variant = sc.variant;
      o.block_size = sc.block;
      o.runtime = sc.runtime;
      o.verify_interval = sc.verify_interval;
      o.metrics = &scratch_metrics;
      o.event_sink = dbg_sink.get();
      res = abft::lu(m, &a, n, o, &inj);
      break;
    }
    case Algo::Qr: {
      abft::QrOptions o;
      o.variant = sc.variant;
      o.block_size = sc.block;
      o.runtime = sc.runtime;
      o.verify_interval = sc.verify_interval;
      o.metrics = &scratch_metrics;
      o.event_sink = dbg_sink.get();
      res = abft::qr(m, &a, &tau, n, o, &inj);
      break;
    }
  }

  ScenarioResult out;
  out.success = res.success;
  out.residual = std::numeric_limits<double>::quiet_NaN();
  if (res.success) {
    switch (sc.algo) {
      case Algo::Cholesky:
        out.residual = blas::cholesky_residual(pristine.view(), a.view());
        if (std::getenv("FTLA_CAMPAIGN_DEBUG") != nullptr) {
          // Column j of A - L L^T: w = A(j:n, j) - sum_k L(j:n, k) L(j, k),
          // walked down columns like the oracle itself.
          double worst = 0.0;
          int wi = -1;
          int wj = -1;
          std::vector<double> w(static_cast<std::size_t>(n));
          for (int jj = 0; jj < n; ++jj) {
            const int len = n - jj;
            std::copy_n(&pristine(jj, jj), len, w.begin());
            for (int kk = 0; kk <= jj; ++kk) {
              const double ljk = a(jj, kk);
              const double* lk = &a(jj, kk);
              for (int r = 0; r < len; ++r) w[r] -= lk[r] * ljk;
            }
            for (int r = 0; r < len; ++r) {
              if (std::abs(w[r]) > worst) {
                worst = std::abs(w[r]);
                wi = jj + r;
                wj = jj;
              }
            }
          }
          std::fprintf(stderr, "residual argmax |A-LL^T|(%d,%d)=%.3e\n",
                       wi, wj, worst);
        }
        break;
      case Algo::Lu:
        out.residual = blas::lu_residual(pristine.view(), a.view());
        break;
      case Algo::Qr:
        out.residual = blas::qr_residual(pristine.view(), a.view(),
                                         tau.data());
        break;
    }
  }
  out.verdict = classify(res, out.residual);
  out.seconds = res.seconds;
  out.faults_fired = inj.fired_count();
  out.faults_detected = inj.detected_count();
  out.ecc_absorbed = inj.ecc_absorbed_count();
  out.transfer_faults = transfer_faults;
  out.errors_corrected = res.errors_corrected;
  out.rollbacks = res.rollbacks;
  out.reruns = res.reruns;
  out.fired_plan.reserve(inj.records().size());
  for (const auto& rec : inj.records()) out.fired_plan.push_back(rec.spec);
  out.records = inj.records();
  out.note = res.note;
  return out;
}

Scenario random_scenario(Rng& rng, const CampaignOptions& opt) {
  Scenario sc;
  sc.block = opt.block;
  sc.n = opt.block * rng.uniform_int(opt.min_blocks, opt.max_blocks);
  sc.matrix_seed = rng.next_u64() | 1ULL;
  sc.fault_seed = rng.next_u64() | 1ULL;

  if (rng.uniform(0.0, 1.0) < opt.lu_qr_share) {
    sc.algo = rng.uniform_int(0, 1) == 0 ? Algo::Lu : Algo::Qr;
    sc.variant = rng.uniform_int(0, 2) == 0 ? abft::Variant::NoFt
                                            : abft::Variant::EnhancedOnline;
    sc.recovery = abft::Recovery::Rerun;
  } else {
    sc.algo = Algo::Cholesky;
    switch (rng.uniform_int(0, 3)) {
      case 0: sc.variant = abft::Variant::NoFt; break;
      case 1: sc.variant = abft::Variant::Offline; break;
      case 2: sc.variant = abft::Variant::Online; break;
      default: sc.variant = abft::Variant::EnhancedOnline; break;
    }
    sc.recovery = rng.uniform_int(0, 2) == 0 ? abft::Recovery::Checkpoint
                                             : abft::Recovery::Rerun;
    switch (rng.uniform_int(0, 3)) {
      case 0: sc.placement = abft::UpdatePlacement::Blocking; break;
      case 1: sc.placement = abft::UpdatePlacement::Gpu; break;
      case 2: sc.placement = abft::UpdatePlacement::Cpu; break;
      default: sc.placement = abft::UpdatePlacement::Auto; break;
    }
  }
  // Some of the load runs the task-graph runtime so the zero-SDC
  // invariant is demonstrated over the DAG drivers, not just the bulk
  // oracle. Cholesky's graph path models Gpu-placement rerun-recovery
  // runs only (everything else falls back to bulk, docs/runtime.md), so
  // dag draws pin those axes to guarantee real graph coverage.
  if (rng.uniform(0.0, 1.0) < opt.dag_share) {
    sc.runtime = abft::RuntimeMode::Dag;
    if (sc.algo == Algo::Cholesky) {
      sc.placement = abft::UpdatePlacement::Gpu;
      sc.recovery = abft::Recovery::Rerun;
    }
  }
  sc.verify_interval = rng.uniform_int(0, 3) == 0 ? 2 : 1;
  sc.checkpoint_interval = rng.uniform_int(2, 4);
  // The zero-SDC invariant holds for the guarded variant only with the
  // PCIe windows closed; everything else runs unguarded so the campaign
  // demonstrates the paper's point (NoFt/Offline do produce sdc).
  sc.transfer_guard = (sc.variant == opt.guarded);
  sc.ecc = rng.uniform_int(0, 3) == 0;
  // Calibrated against test_rig makespans (~1e-4 virtual seconds at
  // these sizes): log-uniform MTBF giving roughly 1..8 arrivals a run.
  sc.mtbf_s = std::pow(10.0, rng.uniform(-5.0, -3.9));
  sc.max_arrivals = 8;
  return sc;
}

namespace {

/// Folds one finished scenario into the summary; the unexpected-verdict
/// handling (deterministic twin + shrinking) re-runs scenarios, so with
/// a parallel campaign this only ever executes in the serial merge
/// phase, in draw order — making the whole summary order-independent of
/// the worker schedule.
void merge_one(CampaignSummary& sum, const Scenario& sc,
               const ScenarioResult& res, const CampaignOptions& opt) {
  ++sum.scenarios_run;
  sum.faults_fired += res.faults_fired;
  sum.faults_detected += res.faults_detected;
  sum.ecc_absorbed += res.ecc_absorbed;
  sum.transfer_faults += res.transfer_faults;
  const std::string key = std::string(to_string(sc.algo)) + "/" +
                          abft::to_string(sc.variant);
  sum.verdicts[key][static_cast<int>(res.verdict)] += 1;

  if (opt.collect_observations) {
    ScenarioObservation obs;
    obs.algo = sc.algo;
    obs.variant = sc.variant;
    obs.recovery = sc.recovery;
    obs.verdict = res.verdict;
    obs.n = sc.n;
    obs.block = sc.block;
    obs.seconds = res.seconds;
    obs.faults_fired = res.faults_fired;
    for (const auto& rec : res.records) {
      if (!rec.detected()) continue;
      obs.detections.push_back(
          DetectionSample{rec.spec.type, rec.detection_latency()});
    }
    sum.observations.push_back(std::move(obs));
  }

  bool unexpected = false;
  if (res.verdict == Verdict::Sdc && sc.variant == opt.guarded) {
    ++sum.guarded_sdc;
    unexpected = true;
  }
  if (res.verdict == Verdict::FailStop && res.faults_fired == 0) {
    ++sum.unexpected_fail_stop;
    unexpected = true;
  }
  if (unexpected) {
    CampaignFailure f;
    // `scenario` stays the original stochastic run — the seeded
    // arrival process makes it replayable as-is. The deterministic
    // twin turns the fired faults into a planned list with the
    // process disabled; shrinking starts from the twin.
    f.scenario = sc;
    f.result = res;
    Scenario twin_sc = sc;
    twin_sc.mtbf_s = 0.0;
    twin_sc.plan = res.fired_plan;
    const ScenarioResult twin = run_scenario(twin_sc);
    f.reproduced = twin.verdict == res.verdict;
    if (f.reproduced && opt.shrink_failures) {
      ShrinkOutcome so = shrink_scenario(twin_sc, res.verdict,
                                         opt.max_shrink_runs);
      f.shrunk = std::move(so.scenario);
      f.shrink_runs = so.runs;
    } else {
      f.shrunk = std::move(twin_sc);
    }
    sum.failures.push_back(std::move(f));
  }
}

}  // namespace

CampaignSummary run_campaign(const CampaignOptions& opt,
                             obs::MetricsRegistry* metrics,
                             std::ostream* progress, int progress_every) {
  CampaignSummary sum;
  Rng rng(opt.seed != 0 ? opt.seed : 1);

  // abort_after truncates the campaign after a prefix of the draw
  // order. Both execution paths honor the same limit, and the rng draws
  // are identical to the full campaign's prefix, so an aborted run's
  // summary is exactly the full run's state after `limit` scenarios.
  const int limit = opt.abort_after > 0
                        ? std::min(opt.scenarios, opt.abort_after)
                        : opt.scenarios;
  sum.aborted = limit < opt.scenarios;

  if (opt.threads == 1 || limit <= 1) {
    for (int i = 0; i < limit; ++i) {
      const Scenario sc = random_scenario(rng, opt);
      const ScenarioResult res = run_scenario(sc);
      merge_one(sum, sc, res, opt);
      if (progress != nullptr && progress_every > 0 &&
          (i + 1) % progress_every == 0) {
        *progress << "[campaign] " << (i + 1) << "/" << limit
                  << " scenarios, " << sum.faults_fired << " faults fired, "
                  << sum.failures.size() << " failures\n";
      }
    }
  } else {
    // Parallel executor. Scenarios are pre-drawn serially (identical rng
    // draw order to the serial path), executed with a grain of 1 so
    // expensive scenarios load-balance, then merged in draw order. Each
    // run_scenario is self-contained (own machine, matrices, injector),
    // and BLAS nested inside a pool worker runs inline, so per-scenario
    // results are bit-identical to the serial campaign.
    std::vector<Scenario> scenarios;
    scenarios.reserve(static_cast<std::size_t>(limit));
    for (int i = 0; i < limit; ++i) {
      scenarios.push_back(random_scenario(rng, opt));
    }
    std::vector<ScenarioResult> results(scenarios.size());
    common::ThreadPool pool(opt.threads);
    common::Mutex progress_mu;
    int completed = 0;
    pool.parallel_for(0, limit, [&](std::int64_t i) {
      results[static_cast<std::size_t>(i)] =
          run_scenario(scenarios[static_cast<std::size_t>(i)]);
      if (progress != nullptr && progress_every > 0) {
        common::MutexLock lk(progress_mu);
        ++completed;
        if (completed % progress_every == 0) {
          // Completion-order progress: counts only — the aggregate
          // numbers of the serial path are not known until the merge.
          *progress << "[campaign] " << completed << "/" << limit
                    << " scenarios completed\n";
        }
      }
    });
    for (int i = 0; i < limit; ++i) {
      merge_one(sum, scenarios[static_cast<std::size_t>(i)],
                results[static_cast<std::size_t>(i)], opt);
    }
  }

  if (metrics != nullptr) {
    metrics->add_counter("campaign.scenarios", sum.scenarios_run);
    metrics->add_counter("campaign.faults.fired", sum.faults_fired);
    metrics->add_counter("campaign.faults.detected", sum.faults_detected);
    metrics->add_counter("campaign.faults.ecc_absorbed", sum.ecc_absorbed);
    metrics->add_counter("campaign.faults.transfer", sum.transfer_faults);
    metrics->add_counter("campaign.failures",
                         static_cast<long long>(sum.failures.size()));
    metrics->add_counter("campaign.guarded_sdc", sum.guarded_sdc);
    metrics->add_counter("campaign.unexpected_fail_stop",
                         sum.unexpected_fail_stop);
    for (const auto& [key, row] : sum.verdicts) {
      std::string dotted = key;
      std::replace(dotted.begin(), dotted.end(), '/', '.');
      for (int v = 0; v < kVerdictCount; ++v) {
        if (row[v] == 0) continue;
        metrics->add_counter("campaign.verdict." + dotted + "." +
                                 to_string(static_cast<Verdict>(v)),
                             row[v]);
      }
    }
  }
  return sum;
}

ShrinkOutcome shrink_scenario(const Scenario& seed_scenario, Verdict target,
                              int max_runs) {
  ShrinkOutcome out;
  out.scenario = seed_scenario;

  const auto reproduces = [&](const Scenario& cand) {
    if (out.runs >= max_runs) return false;
    ++out.runs;
    return run_scenario(cand).verdict == target;
  };

  // Phase 1: drop whole faults while the verdict survives. Restarting
  // the sweep after every successful drop keeps this ddmin-flavored
  // greedy pass order-insensitive enough for small plans.
  bool changed = true;
  while (changed && out.runs < max_runs) {
    changed = false;
    for (std::size_t i = 0; i < out.scenario.plan.size(); ++i) {
      Scenario cand = out.scenario;
      cand.plan.erase(cand.plan.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(cand)) {
        out.scenario = std::move(cand);
        changed = true;
        break;
      }
      if (out.runs >= max_runs) break;
    }
  }

  // Phase 2: canonicalize the survivors — single anchor bit, element
  // (0,0), default magnitude — one attribute at a time.
  for (std::size_t i = 0;
       i < out.scenario.plan.size() && out.runs < max_runs; ++i) {
    FaultSpec& f = out.scenario.plan[i];
    if (f.bits.size() > 1) {
      Scenario cand = out.scenario;
      cand.plan[i].bits = {f.bits.back()};
      if (reproduces(cand)) out.scenario = std::move(cand);
    }
    if (out.runs < max_runs &&
        (out.scenario.plan[i].elem_row != 0 ||
         out.scenario.plan[i].elem_col != 0)) {
      Scenario cand = out.scenario;
      cand.plan[i].elem_row = 0;
      cand.plan[i].elem_col = 0;
      if (reproduces(cand)) out.scenario = std::move(cand);
    }
    if (out.runs < max_runs &&
        out.scenario.plan[i].type == FaultType::Computing &&
        out.scenario.plan[i].magnitude != 1.0e4) {
      Scenario cand = out.scenario;
      cand.plan[i].magnitude = 1.0e4;
      if (reproduces(cand)) out.scenario = std::move(cand);
    }
  }
  return out;
}

namespace {

template <typename Enum>
bool enum_from_string(const std::string& s, Enum* out, int count) {
  for (int i = 0; i < count; ++i) {
    const auto e = static_cast<Enum>(i);
    if (s == to_string(e)) {
      *out = e;
      return true;
    }
  }
  return false;
}

bool variant_from_string(const std::string& s, abft::Variant* out) {
  for (int i = 0; i <= static_cast<int>(abft::Variant::EnhancedOnline);
       ++i) {
    const auto v = static_cast<abft::Variant>(i);
    if (s == abft::to_string(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

bool recovery_from_string(const std::string& s, abft::Recovery* out) {
  for (const auto r : {abft::Recovery::Rerun, abft::Recovery::Checkpoint}) {
    if (s == abft::to_string(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

bool runtime_from_string(const std::string& s, abft::RuntimeMode* out) {
  for (const auto m : {abft::RuntimeMode::Bulk, abft::RuntimeMode::Dag}) {
    if (s == abft::to_string(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

bool placement_from_string(const std::string& s,
                           abft::UpdatePlacement* out) {
  for (int i = 0; i <= static_cast<int>(abft::UpdatePlacement::Auto); ++i) {
    const auto p = static_cast<abft::UpdatePlacement>(i);
    if (s == abft::to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

std::string join_bits(const std::vector<int>& bits) {
  std::ostringstream os;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i > 0) os << ',';
    os << bits[i];
  }
  return os.str();
}

/// Splits "key=value"; returns false when '=' is missing.
bool split_kv(const std::string& tok, std::string* key, std::string* val) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = tok.substr(0, eq);
  *val = tok.substr(eq + 1);
  return true;
}

}  // namespace

std::string format_scenario(const Scenario& sc) {
  std::ostringstream os;
  // Round-trip precision: mtbf and magnitude feed the seeded arrival
  // process, so a lossy print would make the replay diverge.
  os << std::setprecision(17);
  os << "scenario algo=" << to_string(sc.algo)
     << " variant=" << abft::to_string(sc.variant)
     << " recovery=" << abft::to_string(sc.recovery)
     << " placement=" << abft::to_string(sc.placement)
     << " runtime=" << abft::to_string(sc.runtime) << " n=" << sc.n
     << " block=" << sc.block << " k=" << sc.verify_interval
     << " ckpt=" << sc.checkpoint_interval
     << " matrix_seed=" << sc.matrix_seed
     << " guard=" << (sc.transfer_guard ? 1 : 0)
     << " ecc=" << (sc.ecc ? 1 : 0) << " mtbf=" << sc.mtbf_s
     << " fault_seed=" << sc.fault_seed
     << " max_arrivals=" << sc.max_arrivals << "\n";
  for (const auto& f : sc.plan) {
    os << "fault type=" << to_string(f.type) << " op=" << to_string(f.op)
       << " iter=" << f.iteration << " block=" << f.block_row << ","
       << f.block_col << " elem=" << f.elem_row << "," << f.elem_col
       << " bits=" << join_bits(f.bits) << " mag=" << f.magnitude
       << " chk=" << (f.target_checksum ? 1 : 0)
       << " xfer=" << f.transfer_index << "\n";
  }
  return os.str();
}

bool parse_scenario(const std::string& text, Scenario* out,
                    std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  Scenario sc;
  sc.plan.clear();
  bool saw_header = false;

  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    std::istringstream toks(line);
    std::string head;
    if (!(toks >> head) || head.empty() || head[0] == '#') continue;

    const auto where = [&] {
      return "line " + std::to_string(lineno) + ": ";
    };

    if (head == "scenario") {
      saw_header = true;
      std::string tok;
      while (toks >> tok) {
        std::string key;
        std::string val;
        if (!split_kv(tok, &key, &val)) {
          return fail(where() + "expected key=value, got '" + tok + "'");
        }
        bool ok = true;
        if (key == "algo") {
          ok = enum_from_string(val, &sc.algo, 3);
        } else if (key == "variant") {
          ok = variant_from_string(val, &sc.variant);
        } else if (key == "recovery") {
          ok = recovery_from_string(val, &sc.recovery);
        } else if (key == "placement") {
          ok = placement_from_string(val, &sc.placement);
        } else if (key == "runtime") {
          // Absent in pre-runtime plans: the Bulk default applies.
          ok = runtime_from_string(val, &sc.runtime);
        } else if (key == "n") {
          sc.n = std::atoi(val.c_str());
        } else if (key == "block") {
          sc.block = std::atoi(val.c_str());
        } else if (key == "k") {
          sc.verify_interval = std::atoi(val.c_str());
        } else if (key == "ckpt") {
          sc.checkpoint_interval = std::atoi(val.c_str());
        } else if (key == "matrix_seed") {
          sc.matrix_seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "guard") {
          sc.transfer_guard = val != "0";
        } else if (key == "ecc") {
          sc.ecc = val != "0";
        } else if (key == "mtbf") {
          sc.mtbf_s = std::atof(val.c_str());
        } else if (key == "fault_seed") {
          sc.fault_seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "max_arrivals") {
          sc.max_arrivals = std::atoi(val.c_str());
        } else {
          return fail(where() + "unknown scenario key '" + key + "'");
        }
        if (!ok) {
          return fail(where() + "bad value '" + val + "' for '" + key +
                      "'");
        }
      }
      if (sc.n <= 0 || sc.block <= 0) {
        return fail(where() + "n and block must be positive");
      }
    } else if (head == "fault") {
      FaultSpec f;
      std::string tok;
      while (toks >> tok) {
        std::string key;
        std::string val;
        if (!split_kv(tok, &key, &val)) {
          return fail(where() + "expected key=value, got '" + tok + "'");
        }
        bool ok = true;
        if (key == "type") {
          ok = enum_from_string(val, &f.type, 3);
        } else if (key == "op") {
          ok = enum_from_string(val, &f.op, 4);
        } else if (key == "iter") {
          f.iteration = std::atoi(val.c_str());
        } else if (key == "block") {
          ok = std::sscanf(val.c_str(), "%d,%d", &f.block_row,
                           &f.block_col) == 2;
        } else if (key == "elem") {
          ok = std::sscanf(val.c_str(), "%d,%d", &f.elem_row,
                           &f.elem_col) == 2;
          // Element coordinates index into a block: a negative one
          // would strike outside it. No writer emits one (transfer
          // skeletons are concretized before a plan is recorded).
          if (ok && (f.elem_row < 0 || f.elem_col < 0)) {
            return fail(where() + "negative element coordinate in 'elem=" +
                        val + "'");
          }
        } else if (key == "bits") {
          f.bits.clear();
          std::istringstream bs(val);
          std::string b;
          while (std::getline(bs, b, ',')) {
            if (!b.empty()) f.bits.push_back(std::atoi(b.c_str()));
          }
          ok = !f.bits.empty();
        } else if (key == "mag") {
          f.magnitude = std::atof(val.c_str());
        } else if (key == "chk") {
          f.target_checksum = val != "0";
        } else if (key == "xfer") {
          f.transfer_index = std::strtoll(val.c_str(), nullptr, 10);
        } else {
          return fail(where() + "unknown fault key '" + key + "'");
        }
        if (!ok) {
          return fail(where() + "bad value '" + val + "' for '" + key +
                      "'");
        }
      }
      sc.plan.push_back(std::move(f));
    } else {
      return fail(where() + "expected 'scenario' or 'fault', got '" +
                  head + "'");
    }
  }

  if (!saw_header) return fail("no 'scenario' header line found");
  *out = sc;
  return true;
}

}  // namespace ftla::fault
