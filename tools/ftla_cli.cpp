// ftla_cli — run one fault-tolerant factorization from the command line.
//
//   ftla_cli [options]
//     --machine tardis|bulldozer64|test   simulated node (default tardis)
//     --n N                               matrix size (default 2048)
//     --block B                           block size (default: MAGMA's)
//     --algo cholesky|lu|qr               factorization (default cholesky)
//     --variant enhanced|online|offline|noft|cula|dmr|tmr
//     --k K                               Opt-3 verification interval
//     --recovery rerun|checkpoint         recovery strategy
//     --ckpt-interval N                   iterations between snapshots
//     --placement auto|cpu|gpu|blocking   Opt-2 placement
//     --no-opt1                           serialize checksum recalcs
//     --mode numeric|timing               execution mode
//     --threads N                         host BLAS worker threads
//                                         (0 = all cores; default 1)
//     --faults N                          random faults to inject (numeric)
//     --fault-seed S                      fault plan seed
//     --seed S                            matrix seed
//     --trace-out FILE.json               write a fault-annotated Chrome
//                                         trace (--trace is an alias)
//     --metrics-out FILE.json             write the metrics report
//                                         (schema docs/observability.md)
//     --profile-out FILE.json             write the simulated-time profile
//                                         (phase decomposition + critical
//                                         path; ftla_profile_cli reads it)
//     --timeseries-out FILE.json          write windowed time-series rollups
//                                         (resource occupancy + verification
//                                         progress over virtual time)
//     --timeseries-window W               rollup window in virtual seconds
//                                         (default: makespan / 20)
//     --postmortem-out FILE.json          write the flight-recorder bundle
//                                         at exit (any exit code)
//     --summary                           print per-lane trace summary
//
// With FTLA_POSTMORTEM=FILE.json in the environment, the flight-recorder
// bundle is dumped to FILE on any nonzero exit (the shared exit-code
// contract; see docs/observability.md, "Analytics & postmortems").
//
// Examples:
//   ftla_cli --machine bulldozer64 --n 30720 --mode timing --variant enhanced --k 5
//   ftla_cli --n 1024 --faults 3 --variant online --trace-out run.json
//   ftla_cli --n 1024 --faults 2 --trace-out run.json --metrics-out m.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "abft/cula_like.hpp"
#include "abft/modular_redundancy.hpp"
#include "blas/lapack.hpp"
#include "fault/campaign.hpp"
#include "blas/qr.hpp"
#include "common/spd.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "obs/event_sink.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profile_report.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "sim/profile.hpp"
#include "sim/profiler.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace ftla;

// Flight recorder shared with usage(): whatever was attached by the
// time the tool exits is what the postmortem bundle shows.
obs::FlightRecorder g_recorder;
std::string g_postmortem_path;

/// The single exit gate: dumps the flight-recorder bundle to
/// --postmortem-out (always) or $FTLA_POSTMORTEM (nonzero exits only),
/// then hands the code back. Best-effort — a failed dump never changes
/// the exit code.
int finish(int code, const std::string& reason) {
  if (!g_postmortem_path.empty()) {
    g_recorder.dump_file(g_postmortem_path, code, reason);
  } else if (const char* env = std::getenv("FTLA_POSTMORTEM");
             env != nullptr && code != fault::kExitSuccess) {
    g_recorder.dump_file(env, code, reason);
  }
  return code;
}

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: ftla_cli [--machine tardis|bulldozer64|test] [--n N]\n"
               "  [--block B] [--variant enhanced|online|offline|noft|cula|"
               "dmr|tmr]\n"
               "  [--k K] [--placement auto|cpu|gpu|blocking] [--no-opt1]\n"
               "  [--runtime bulk|dag]\n"
               "  [--mode numeric|timing] [--threads N] [--faults N]\n"
               "  [--fault-seed S]\n"
               "  [--seed S] [--trace-out FILE.json] [--metrics-out "
               "FILE.json]\n"
               "  [--profile-out FILE.json] [--timeseries-out FILE.json]\n"
               "  [--timeseries-window W] [--postmortem-out FILE.json]\n"
               "  [--summary]\n"
               "\n"
               "  --runtime bulk|dag  execution structure: bulk-synchronous\n"
               "                      phases (the conformance oracle) or the\n"
               "                      dependency-driven task graph\n"
               "                      (docs/runtime.md)\n"
               "  --trace-out FILE    Chrome trace with fault annotations\n"
               "                      (instant events + injection->detection\n"
               "                      flow arrows); --trace is an alias\n"
               "  --metrics-out FILE  metrics report JSON (counters, gauges,\n"
               "                      detection-latency histogram); schema in\n"
               "                      docs/observability.md\n"
               "  --profile-out FILE  simulated-time profile JSON (per-phase\n"
               "                      overhead decomposition, critical path,\n"
               "                      resource utilization); inspect or gate\n"
               "                      with ftla_profile_cli\n"
               "  --timeseries-out FILE  windowed time-series rollups JSON\n"
               "                      (resource occupancy + verification\n"
               "                      progress over virtual time)\n"
               "  --postmortem-out FILE  flight-recorder bundle at exit;\n"
               "                      FTLA_POSTMORTEM=FILE in the environment\n"
               "                      dumps on any nonzero exit instead\n"
               "\n"
               "exit codes:\n"
               "  0  success (clean result)\n"
               "  1  I/O error (could not write trace/metrics file)\n"
               "  2  usage error\n"
               "  3  fail-stop (run gave up; the honest failure mode)\n"
               "  4  silent data corruption (claimed success, residual "
               "corrupt)\n");
  std::exit(finish(ftla::fault::kExitUsage,
                   msg != nullptr ? std::string("usage error: ") + msg
                                  : std::string("usage error")));
}

struct Args {
  std::string machine = "tardis";
  std::string algo = "cholesky";
  std::string recovery = "rerun";
  int ckpt_interval = 8;
  int n = 2048;
  int block = 0;
  std::string variant = "enhanced";
  int k = 1;
  std::string placement = "auto";
  std::string runtime = "bulk";
  bool opt1 = true;
  std::string mode = "numeric";
  int threads = 1;
  int faults = 0;
  std::uint64_t fault_seed = 1;
  std::uint64_t seed = 42;
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  std::string timeseries_path;
  double timeseries_window = 0.0;  ///< <= 0: makespan / 20
  bool summary = false;
};

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--machine") a.machine = need(i);
    else if (opt == "--algo") a.algo = need(i);
    else if (opt == "--recovery") a.recovery = need(i);
    else if (opt == "--ckpt-interval") a.ckpt_interval = std::atoi(need(i));
    else if (opt == "--n") a.n = std::atoi(need(i));
    else if (opt == "--block") a.block = std::atoi(need(i));
    else if (opt == "--variant") a.variant = need(i);
    else if (opt == "--k") a.k = std::atoi(need(i));
    else if (opt == "--placement") a.placement = need(i);
    else if (opt == "--runtime") a.runtime = need(i);
    else if (opt == "--no-opt1") a.opt1 = false;
    else if (opt == "--mode") a.mode = need(i);
    else if (opt == "--threads") a.threads = std::atoi(need(i));
    else if (opt == "--faults") a.faults = std::atoi(need(i));
    else if (opt == "--fault-seed") a.fault_seed = std::strtoull(need(i), nullptr, 10);
    else if (opt == "--seed") a.seed = std::strtoull(need(i), nullptr, 10);
    else if (opt == "--trace" || opt == "--trace-out") a.trace_path = need(i);
    else if (opt == "--metrics-out") a.metrics_path = need(i);
    else if (opt == "--profile-out") a.profile_path = need(i);
    else if (opt == "--timeseries-out") a.timeseries_path = need(i);
    else if (opt == "--timeseries-window")
      a.timeseries_window = std::atof(need(i));
    else if (opt == "--postmortem-out") g_postmortem_path = need(i);
    else if (opt == "--summary") a.summary = true;
    else if (opt == "--help" || opt == "-h") usage();
    else usage(("unknown option " + opt).c_str());
  }
  if (a.n <= 0) usage("--n must be positive");
  if (a.threads < 0) usage("--threads must be >= 0");
  if (a.k <= 0) usage("--k must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  common::set_global_threads(args.threads);

  // Postmortem capture is active when explicitly requested or armed via
  // the environment; it implies event + metrics recording so a failing
  // run always has a tail to dump.
  const bool want_postmortem = !g_postmortem_path.empty() ||
                               std::getenv("FTLA_POSTMORTEM") != nullptr;
  g_recorder.set_meta("tool", "ftla_cli");
  g_recorder.set_meta("machine", args.machine);
  g_recorder.set_meta("algo", args.algo);
  g_recorder.set_meta("variant", args.variant);
  g_recorder.set_meta("mode", args.mode);
  g_recorder.set_meta("runtime", args.runtime);
  g_recorder.set_meta("n", std::to_string(args.n));
  g_recorder.set_meta("faults", std::to_string(args.faults));
  g_recorder.note("args parsed");

  sim::MachineProfile profile;
  if (args.machine == "tardis") profile = sim::tardis();
  else if (args.machine == "bulldozer64") profile = sim::bulldozer64();
  else if (args.machine == "test") profile = sim::test_rig();
  else usage("unknown --machine");

  const bool numeric = args.mode == "numeric";
  if (!numeric && args.mode != "timing") usage("unknown --mode");
  if (!numeric && args.faults > 0) usage("--faults requires --mode numeric");

  sim::Machine machine(profile, numeric ? sim::ExecutionMode::Numeric
                                        : sim::ExecutionMode::TimingOnly);
  const bool want_timeseries = !args.timeseries_path.empty();
  const bool want_profile = !args.profile_path.empty();

  // Telemetry capture: one event sink + metrics registry shared by the
  // simulator, the fault injector and the ABFT driver.
  const bool want_obs = !args.trace_path.empty() ||
                        !args.metrics_path.empty() || want_postmortem;
  obs::RingBufferSink sink;
  obs::MetricsRegistry metrics;
  if (want_obs) machine.set_event_sink(&sink);
  if (want_postmortem) {
    g_recorder.attach_events(&sink);
    g_recorder.attach_metrics(&metrics);
  }

  // Span capture: one store collects every simulated activity from the
  // machine while the driver tags ABFT phases and iterations on it (the
  // wiring convention of docs/observability.md). The trace, summary,
  // time-series occupancy and profile outputs are all views of it.
  const bool want_spans = !args.trace_path.empty() || args.summary ||
                          want_timeseries || want_profile;
  obs::SpanStore spans;
  obs::SpanStore* const span_store = want_spans ? &spans : nullptr;
  machine.set_span_store(span_store);
  if (want_profile) g_recorder.attach_spans(&spans);

  // Time-series capture: verification progress from the telemetry layer
  // lands here during the run; resource occupancy is derived from the
  // spans afterwards.
  obs::TimeSeriesStore timeseries;

  Matrix<double> a;
  Matrix<double> a0;
  if (numeric) {
    a = Matrix<double>(args.n, args.n);
    make_spd_diag_dominant(a, args.seed);
    a0 = a;
  }
  Matrix<double>* ap = numeric ? &a : nullptr;

  abft::CholeskyOptions opt;
  opt.block_size = args.block;
  opt.verify_interval = args.k;
  opt.concurrent_recalc = args.opt1;
  opt.checkpoint_interval = args.ckpt_interval;
  if (args.recovery == "rerun") opt.recovery = abft::Recovery::Rerun;
  else if (args.recovery == "checkpoint")
    opt.recovery = abft::Recovery::Checkpoint;
  else usage("unknown --recovery");
  if (args.placement == "auto") opt.placement = abft::UpdatePlacement::Auto;
  else if (args.placement == "cpu") opt.placement = abft::UpdatePlacement::Cpu;
  else if (args.placement == "gpu") opt.placement = abft::UpdatePlacement::Gpu;
  else if (args.placement == "blocking")
    opt.placement = abft::UpdatePlacement::Blocking;
  else usage("unknown --placement");
  abft::RuntimeMode runtime_mode;
  if (args.runtime == "bulk") runtime_mode = abft::RuntimeMode::Bulk;
  else if (args.runtime == "dag") runtime_mode = abft::RuntimeMode::Dag;
  else usage("unknown --runtime");
  opt.runtime = runtime_mode;
  if (want_obs) {
    opt.event_sink = &sink;
    opt.metrics = &metrics;
  }
  opt.profile = span_store;
  if (want_timeseries) opt.timeseries = &timeseries;

  const int block = abft::resolve_block_size(profile, opt);
  const int nb = (args.n + block - 1) / block;
  std::vector<fault::FaultSpec> plan =
      args.faults > 0 ? fault::random_plan(args.faults, nb, args.fault_seed)
                      : std::vector<fault::FaultSpec>{};
  if (args.algo == "lu" || args.algo == "qr") {
    // Retarget the Cholesky-phrased plan to LU/QR program points.
    for (auto& spec : plan) {
      if (spec.op == fault::Op::Syrk) spec.op = fault::Op::Gemm;
      spec.block_row = -1;
      spec.block_col = -1;
    }
  }
  fault::Injector injector(std::move(plan));
  fault::Injector* inj = args.faults > 0 ? &injector : nullptr;

  abft::CholeskyResult res;
  std::vector<double> tau;
  if (args.algo == "qr") {
    if (args.variant != "enhanced" && args.variant != "noft") {
      usage("--algo qr supports --variant enhanced|noft");
    }
    abft::QrOptions qopt;
    qopt.variant = args.variant == "enhanced" ? abft::Variant::EnhancedOnline
                                              : abft::Variant::NoFt;
    qopt.block_size = args.block;
    qopt.verify_interval = args.k;
    qopt.concurrent_recalc = args.opt1;
    qopt.runtime = runtime_mode;
    if (want_obs) {
      qopt.event_sink = &sink;
      qopt.metrics = &metrics;
    }
    qopt.profile = span_store;
    if (want_timeseries) qopt.timeseries = &timeseries;
    res = abft::qr(machine, ap, numeric ? &tau : nullptr, args.n, qopt, inj);
  } else if (args.algo == "lu") {
    if (args.variant != "enhanced" && args.variant != "noft") {
      usage("--algo lu supports --variant enhanced|noft");
    }
    abft::LuOptions lopt;
    lopt.variant = args.variant == "enhanced" ? abft::Variant::EnhancedOnline
                                              : abft::Variant::NoFt;
    lopt.block_size = args.block;
    lopt.verify_interval = args.k;
    lopt.concurrent_recalc = args.opt1;
    lopt.runtime = runtime_mode;
    if (want_obs) {
      lopt.event_sink = &sink;
      lopt.metrics = &metrics;
    }
    lopt.profile = span_store;
    if (want_timeseries) lopt.timeseries = &timeseries;
    res = abft::lu(machine, ap, args.n, lopt, inj);
  } else if (args.algo != "cholesky") {
    usage("unknown --algo");
  } else if (args.variant == "enhanced") {
    opt.variant = abft::Variant::EnhancedOnline;
    res = abft::cholesky(machine, ap, args.n, opt, inj);
  } else if (args.variant == "online") {
    opt.variant = abft::Variant::Online;
    res = abft::cholesky(machine, ap, args.n, opt, inj);
  } else if (args.variant == "offline") {
    opt.variant = abft::Variant::Offline;
    res = abft::cholesky(machine, ap, args.n, opt, inj);
  } else if (args.variant == "noft") {
    opt.variant = abft::Variant::NoFt;
    res = abft::cholesky(machine, ap, args.n, opt, inj);
  } else if (args.variant == "cula") {
    res = abft::cula_like_cholesky(machine, ap, args.n, args.block);
  } else if (args.variant == "dmr") {
    abft::RedundancyOptions ropt;
    ropt.block_size = args.block;
    res = abft::dmr_cholesky(machine, ap, args.n, ropt, inj);
  } else if (args.variant == "tmr") {
    abft::RedundancyOptions ropt;
    ropt.block_size = args.block;
    res = abft::tmr_cholesky(machine, ap, args.n, ropt, inj);
  } else {
    usage("unknown --variant");
  }
  g_recorder.note("factorization returned");

  std::printf("machine           : %s (%s mode)\n", profile.name.c_str(),
              numeric ? "numeric" : "timing-only");
  std::printf("problem           : n = %d, block = %d, variant = %s, K = %d, "
              "runtime = %s\n",
              args.n, block, args.variant.c_str(), args.k,
              args.runtime.c_str());
  std::printf("success           : %s%s%s\n", res.success ? "yes" : "no",
              res.note.empty() ? "" : " — ", res.note.c_str());
  std::printf("virtual time      : %.6f s (%.2f GFLOP/s)\n", res.seconds,
              res.gflops);
  std::printf("detected/corrected: %d / %d (checksum repairs %d, reruns %d)\n",
              res.errors_detected, res.errors_corrected,
              res.checksum_repairs, res.reruns);
  if (inj != nullptr) {
    std::printf("faults fired      : %d (ECC absorbed %d, pending %d)\n",
                injector.fired_count(), injector.ecc_absorbed_count(),
                injector.pending_count());
  }
  if (res.verified.total() > 0) {
    std::printf("verified blocks   : potf2 %lld, trsm %lld, syrk %lld, "
                "gemm %lld\n",
                res.verified.potf2_blocks, res.verified.trsm_blocks,
                res.verified.syrk_blocks, res.verified.gemm_blocks);
  }
  // Exit-code contract (see --help): distinguish the honest failure
  // mode (fail-stop, 3) from the dangerous one (SDC, 4) so scripts and
  // CI can tell them apart.
  int exit_code = res.success ? fault::kExitSuccess : fault::kExitFailStop;
  if (numeric && res.success) {
    double resid;
    if (args.algo == "lu") {
      resid = blas::lu_residual(a0.view(), a.view());
    } else if (args.algo == "qr") {
      resid = blas::qr_residual(a0.view(), a.view(), tau.data());
    } else {
      resid = blas::cholesky_residual(a0.view(), a.view());
    }
    std::printf("residual          : %.3e %s\n", resid,
                resid < 1e-8 ? "(clean)" : "(CORRUPTED)");
    // NaN-safe: a NaN residual must classify as corrupt.
    if (!(resid < 1e-6)) exit_code = fault::kExitSdc;
  }
  if (args.summary) sim::print_trace_summary(machine, spans, std::cout);
  if (!args.trace_path.empty()) {
    if (sim::write_chrome_trace_file(spans, args.trace_path, sink.events())) {
      std::printf("chrome trace      : %s (open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  args.trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", args.trace_path.c_str());
      return finish(fault::kExitIoError, "failed to write trace");
    }
  }
  if (want_timeseries) {
    sim::append_machine_timeseries(machine, spans, &timeseries);
    const double window = args.timeseries_window > 0.0
                              ? args.timeseries_window
                              : machine.makespan() / 20.0;
    obs::TimeSeriesReport ts = obs::build_timeseries_report(timeseries, window);
    ts.meta["machine"] = profile.name;
    ts.meta["mode"] = numeric ? "numeric" : "timing";
    ts.meta["algo"] = args.algo;
    ts.meta["variant"] = args.variant;
    ts.meta["n"] = std::to_string(args.n);
    ts.meta["block"] = std::to_string(block);
    ts.meta["k"] = std::to_string(args.k);
    if (obs::write_timeseries_json_file(ts, args.timeseries_path)) {
      std::printf("timeseries report : %s (render with ftla_report_cli)\n",
                  args.timeseries_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n",
                   args.timeseries_path.c_str());
      return finish(fault::kExitIoError, "failed to write timeseries");
    }
  }
  obs::ProfileReport prof;
  if (want_profile) {
    prof = sim::build_profile(machine, spans);
    prof.meta["machine"] = profile.name;
    prof.meta["mode"] = numeric ? "numeric" : "timing";
    prof.meta["algo"] = args.algo;
    prof.meta["variant"] = args.variant;
    prof.meta["n"] = std::to_string(args.n);
    prof.meta["block"] = std::to_string(block);
    prof.meta["k"] = std::to_string(args.k);
    if (obs::write_profile_json_file(prof, args.profile_path)) {
      std::printf("profile report    : %s (inspect with ftla_profile_cli)\n",
                  args.profile_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", args.profile_path.c_str());
      return finish(fault::kExitIoError, "failed to write profile");
    }
  }
  if (want_obs) {
    // Run-level result counters and gauges alongside the driver's
    // telemetry so one file answers "what happened". Folded into the
    // live registry (not a report-local copy) so the flight recorder's
    // postmortem snapshot reconciles exactly with the metrics report.
    auto& m = metrics;
    m.set_gauge("run.seconds", res.seconds);
    m.set_gauge("run.gflops", res.gflops);
    m.counter("run.errors_detected") = res.errors_detected;
    m.counter("run.errors_corrected") = res.errors_corrected;
    m.counter("run.checksum_repairs") = res.checksum_repairs;
    m.counter("run.reruns") = res.reruns;
    m.counter("run.rollbacks") = res.rollbacks;
    m.counter("run.verified.potf2_blocks") = res.verified.potf2_blocks;
    m.counter("run.verified.trsm_blocks") = res.verified.trsm_blocks;
    m.counter("run.verified.syrk_blocks") = res.verified.syrk_blocks;
    m.counter("run.verified.gemm_blocks") = res.verified.gemm_blocks;
    if (inj != nullptr) {
      m.counter("faults.fired") = injector.fired_count();
      m.counter("faults.detected") = injector.detected_count();
      m.counter("faults.ecc_absorbed") = injector.ecc_absorbed_count();
      m.counter("faults.pending") = injector.pending_count();
    }
    m.set_gauge("sim.makespan_s", machine.makespan());
    m.counter("sim.trace_records") = static_cast<long long>(spans.size());
    m.counter("sim.trace_dropped") = static_cast<long long>(spans.dropped());
    m.counter("obs.events_posted") = sink.posted();
    m.counter("obs.events_dropped") = static_cast<long long>(sink.dropped());
    if (want_profile) {
      // The profiler's headline numbers, so the metrics trajectory can
      // chart overhead without parsing the profile document.
      m.set_gauge("profile.critical_path_s", prof.critical_path_seconds);
      m.set_gauge("profile.abft_critical_s", prof.abft_critical_seconds);
      m.set_gauge("profile.idle_critical_s", prof.idle_critical_seconds);
      m.set_gauge("profile.projected_no_abft_s",
                  prof.projected_no_abft_seconds);
      m.counter("profile.spans_recorded") = prof.span_count;
      m.counter("profile.spans_dropped") = prof.spans_dropped;
    }
  }
  if (!args.metrics_path.empty()) {
    obs::MetricsReport report;
    report.add_meta("machine", profile.name);
    report.add_meta("mode", numeric ? "numeric" : "timing");
    report.add_meta("algo", args.algo);
    report.add_meta("variant", args.variant);
    report.add_meta("n", std::to_string(args.n));
    report.add_meta("block", std::to_string(block));
    report.add_meta("k", std::to_string(args.k));
    report.add_meta("placement", to_string(res.chosen_placement));
    report.metrics = metrics;
    if (obs::write_metrics_json_file(report, args.metrics_path)) {
      std::printf("metrics report    : %s\n", args.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", args.metrics_path.c_str());
      return finish(fault::kExitIoError, "failed to write metrics");
    }
  }
  return finish(exit_code, exit_code == fault::kExitSuccess ? "success"
                           : exit_code == fault::kExitSdc
                               ? "silent data corruption"
                               : "fail-stop");
}
