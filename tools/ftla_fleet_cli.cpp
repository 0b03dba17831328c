// ftla_fleet_cli — fleet-wide fault campaigns over the resilient
// factorization service (docs/fleet.md).
//
// Campaign mode (default): run N randomized fleet scenarios (device
// count, workload, device-loss/stall/degrade plans, soft-error
// pressure), classify every job, print the verdict table, and fail on
// any violated campaign invariant (SDC or a dropped job).
//
// Replay mode (--replay FILE): run one fleet scenario from a file
// written by --failures-out (format_fleet_scenario text); every random
// choice inside a scenario derives from its seed, so the replay is
// byte-for-byte the campaign's run.
//
// Every campaign also evaluates the fleet SLOs (availability, p99 job
// latency, zero SDC) over the virtual clock, accounts per-tenant usage,
// and — with --trace-out — writes the merged causal-trace file, byte-
// identical at any --threads (docs/observability.md).
//
// With FTLA_POSTMORTEM=FILE.json in the environment (or
// --postmortem-out), the flight-recorder bundle is dumped on exit
// (docs/observability.md, "Analytics & postmortems").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/exit_codes.hpp"
#include "obs/event_sink.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "service/fleet_campaign.hpp"

namespace {

using namespace ftla;

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
             env != nullptr && code != common::kExitSuccess) {
    g_recorder.dump_file(env, code, reason);
  }
  return code;
}

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: ftla_fleet_cli [options]\n"
      "  --scenarios N        randomized fleet scenarios (default 500)\n"
      "  --seed S             campaign seed (default 1)\n"
      "  --devices LO:HI      fleet-size range (default 2:4)\n"
      "  --jobs LO:HI         jobs per scenario (default 1:3)\n"
      "  --max-losses N       device losses per scenario at most N\n"
      "                       (default 2; always capped at devices-1)\n"
      "  --threads N          run scenarios on N worker threads\n"
      "                       (0 = all cores; default 1). The summary is\n"
      "                       bit-identical to a serial campaign\n"
      "  --report FILE.json   write the campaign metrics report\n"
      "  --trace-out FILE.json\n"
      "                       write the merged causal-trace file (byte-\n"
      "                       identical at any --threads; inspect with\n"
      "                       ftla_trace_cli)\n"
      "  --slo-latency S      p99 job-latency SLO threshold in virtual\n"
      "                       seconds (default 0.05)\n"
      "  --abort-after N      stop after N scenarios (deterministic\n"
      "                       truncation; exits 3 to flag the abort)\n"
      "  --postmortem-out FILE write the flight-recorder bundle at exit\n"
      "  --failures-out FILE  write failing scenarios (replayable)\n"
      "  --replay FILE        run one fleet scenario from FILE instead\n"
      "                       of a campaign; exits by its outcome\n"
      "  --quiet              suppress progress lines\n"
      "\n"
      "exit codes:\n"
      "  0  campaign clean (zero SDC, zero dropped jobs)\n"
      "  1  I/O error (could not read or write a file)\n"
      "  2  usage error\n"
      "  3  fail-stop (a dropped job, or --abort-after cut the campaign\n"
      "     short)\n"
      "  4  silent data corruption (any job whose claimed success fails\n"
      "     the independent residual oracle)\n");
  std::exit(finish(common::kExitUsage,
                   msg != nullptr ? std::string("usage error: ") + msg
                                  : std::string("usage error")));
}

void print_result(const service::FleetScenarioResult& res) {
  std::printf("jobs      : %d admitted, %d dropped\n", res.jobs_admitted,
              res.dropped);
  std::printf("fleet     : %d device loss(es), %d migration(s), "
              "%d retr(ies)\n",
              res.device_losses, res.migrations, res.retries_spent);
  std::printf("faults    : %lld fired, %lld detected\n", res.faults_fired,
              res.faults_detected);
  std::printf("horizon   : %.3e s (dry), %.3e s (faulted)\n", res.horizon_s,
              res.makespan_s);
  for (const auto& job : res.jobs) {
    std::printf("  job %d: %s device=%d attempts=%d migrations=%d "
                "resumed=%d latency=%.3e residual=%.3e%s\n",
                job.job_id, service::to_string(job.outcome), job.device,
                job.attempts, job.migrations, job.resumed_iterations,
                job.latency(), job.residual, job.sdc ? " SDC" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  service::FleetCampaignOptions opt;
  std::string report_path;
  std::string failures_path;
  std::string replay_path;
  std::string trace_path;
  double slo_latency_s = 0.05;
  bool quiet = false;

  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenarios") opt.scenarios = std::atoi(need(i));
    else if (arg == "--seed") opt.seed = std::strtoull(need(i), nullptr, 10);
    else if (arg == "--threads") opt.threads = std::atoi(need(i));
    else if (arg == "--devices") {
      const std::string v = need(i);
      if (std::sscanf(v.c_str(), "%d:%d", &opt.min_devices,
                      &opt.max_devices) != 2) {
        usage("--devices expects LO:HI");
      }
    } else if (arg == "--jobs") {
      const std::string v = need(i);
      if (std::sscanf(v.c_str(), "%d:%d", &opt.min_jobs, &opt.max_jobs) !=
          2) {
        usage("--jobs expects LO:HI");
      }
    } else if (arg == "--max-losses") opt.max_losses = std::atoi(need(i));
    else if (arg == "--report") report_path = need(i);
    else if (arg == "--trace-out") trace_path = need(i);
    else if (arg == "--slo-latency") slo_latency_s = std::atof(need(i));
    else if (arg == "--abort-after") opt.abort_after = std::atoi(need(i));
    else if (arg == "--postmortem-out") g_postmortem_path = need(i);
    else if (arg == "--failures-out") failures_path = need(i);
    else if (arg == "--replay") replay_path = need(i);
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (opt.scenarios <= 0) usage("--scenarios must be positive");
  if (opt.threads < 0) usage("--threads must be >= 0");
  if (opt.min_devices < 1 || opt.max_devices < opt.min_devices) {
    usage("--devices range is empty");
  }
  if (opt.min_jobs < 1 || opt.max_jobs < opt.min_jobs) {
    usage("--jobs range is empty");
  }
  if (opt.max_losses < 0) usage("--max-losses must be >= 0");
  if (slo_latency_s <= 0.0) usage("--slo-latency must be positive");

  g_recorder.set_meta("tool", "ftla_fleet_cli");
  g_recorder.set_meta("scenarios", std::to_string(opt.scenarios));
  g_recorder.set_meta("seed", std::to_string(opt.seed));
  g_recorder.set_meta("threads", std::to_string(opt.threads));
  if (opt.abort_after > 0) {
    g_recorder.set_meta("abort_after", std::to_string(opt.abort_after));
  }
  g_recorder.note("args parsed");

  if (!replay_path.empty()) {
    g_recorder.set_meta("replay", replay_path);
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
      return finish(common::kExitIoError, "cannot read replay file");
    }
    std::ostringstream text;
    text << in.rdbuf();
    service::FleetScenario sc;
    std::string err;
    if (!service::parse_fleet_scenario(text.str(), &sc, &err)) {
      std::fprintf(stderr, "%s: %s\n", replay_path.c_str(), err.c_str());
      return finish(common::kExitUsage, "unparsable replay scenario");
    }
    const service::FleetScenarioResult res = service::run_fleet_scenario(sc);
    print_result(res);
    if (res.sdc_jobs > 0) {
      return finish(common::kExitSdc, "replayed scenario saw sdc");
    }
    if (res.dropped != 0) {
      return finish(common::kExitFailStop, "replayed scenario dropped jobs");
    }
    return finish(common::kExitSuccess, "replayed scenario clean");
  }

  obs::MetricsRegistry metrics;
  obs::RingBufferSink events;
  g_recorder.attach_metrics(&metrics);
  g_recorder.attach_events(&events);
  // SLO records and trace spans both fold in draw order inside the
  // campaign, so everything below is byte-stable at any --threads.
  obs::SloEngine slo;
  slo.set_event_sink(&events);
  for (const auto& spec : obs::SloEngine::default_fleet_slos(slo_latency_s)) {
    slo.add(spec);
  }
  obs::TraceStore trace;
  const service::FleetCampaignSummary sum = service::run_fleet_campaign(
      opt, &metrics, quiet ? nullptr : &std::cout, 100,
      trace_path.empty() ? nullptr : &trace, &slo);
  g_recorder.note(sum.aborted ? "campaign aborted early"
                              : "campaign complete");

  std::printf("scenarios : %d\n", sum.scenarios_run);
  std::printf("jobs      : %lld admitted, %lld dropped, %lld sdc\n",
              sum.jobs_admitted, sum.dropped_jobs, sum.sdc_jobs);
  std::printf("fleet     : %lld device losses, %lld migrations, "
              "%lld retries\n",
              sum.device_losses, sum.migrations, sum.retries_spent);
  std::printf("faults    : %lld fired, %lld detected\n", sum.faults_fired,
              sum.faults_detected);
  std::printf("%-18s %9s\n", "verdict", "jobs");
  for (int v = 0; v < service::kFleetVerdictCount; ++v) {
    std::printf("%-18s %9lld\n",
                service::to_string(static_cast<service::FleetVerdict>(v)),
                sum.verdicts[static_cast<std::size_t>(v)]);
  }
  if (!sum.tenants.empty()) {
    std::printf("%-10s %6s %8s %11s %17s %15s\n", "tenant", "jobs",
                "retries", "migrations", "device_seconds",
                "checkpoint_B");
    for (const auto& [name, t] : sum.tenants) {
      std::printf("%-10s %6lld %8lld %11lld %17.9e %15lld\n", name.c_str(),
                  t.jobs, t.retries, t.migrations, t.device_seconds,
                  t.checkpoint_bytes);
    }
  }
  std::printf("%-14s %9s %6s %6s %12s %s\n", "slo", "objective", "total",
              "bad", "burn_rate", "state");
  for (const auto& st : slo.states()) {
    std::printf("%-14s %9.4f %6lld %6lld %12.4e %s\n",
                st.spec.name.c_str(), st.spec.objective,
                static_cast<long long>(st.total),
                static_cast<long long>(st.bad), st.burn_rate(),
                st.alerting ? "ALERTING" : "ok");
  }
  std::printf("slo p99   : %.9e s (%lld alert(s))\n", slo.latency_p99(),
              static_cast<long long>(slo.alerts_fired()));

  if (!sum.failures.empty()) {
    std::printf("\n%zu invariant violation(s):\n", sum.failures.size());
    for (const auto& f : sum.failures) {
      std::printf("--- reason=%s sdc_jobs=%d dropped=%d\n",
                  f.reason.c_str(), f.result.sdc_jobs, f.result.dropped);
      std::fputs(service::format_fleet_scenario(f.scenario).c_str(), stdout);
    }
  }

  if (!failures_path.empty() && !sum.failures.empty()) {
    std::ofstream out(failures_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", failures_path.c_str());
      return finish(common::kExitIoError, "cannot write failures file");
    }
    for (const auto& f : sum.failures) {
      out << "# reason=" << f.reason << "\n"
          << service::format_fleet_scenario(f.scenario) << "\n";
    }
  }

  if (!trace_path.empty()) {
    const obs::TraceReport tr = obs::TraceReport::build(trace);
    if (!tr.write_file(trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return finish(common::kExitIoError, "failed to write trace file");
    }
    std::printf("trace     : %s (%zu spans)\n", trace_path.c_str(),
                tr.spans.size());
    g_recorder.note("trace written");
  }

  if (!report_path.empty()) {
    obs::MetricsReport report;
    report.add_meta("tool", "ftla_fleet_cli");
    report.add_meta("scenarios", std::to_string(opt.scenarios));
    report.add_meta("seed", std::to_string(opt.seed));
    report.add_meta("threads", std::to_string(opt.threads));
    report.metrics = metrics;
    if (!obs::write_metrics_json_file(report, report_path)) {
      std::fprintf(stderr, "failed to write %s\n", report_path.c_str());
      return finish(common::kExitIoError, "failed to write report");
    }
    std::printf("report    : %s\n", report_path.c_str());
  }

  if (sum.sdc_jobs > 0) {
    return finish(common::kExitSdc, "campaign saw sdc jobs");
  }
  if (sum.dropped_jobs != 0) {
    return finish(common::kExitFailStop, "campaign dropped jobs");
  }
  if (sum.aborted) {
    return finish(common::kExitFailStop,
                  "campaign aborted by --abort-after");
  }
  return finish(common::kExitSuccess, "campaign clean");
}
