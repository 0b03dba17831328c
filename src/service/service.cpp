#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "abft/cholesky.hpp"
#include "blas/lapack.hpp"
#include "common/error.hpp"
#include "common/fp.hpp"
#include "common/spd.hpp"
#include "fault/process.hpp"
#include "obs/event_sink.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"

namespace ftla::service {
namespace {

/// Same oracle line as the fault campaign: injected corruption is
/// macroscopic, so anything uncorrected lands far above this.
constexpr double kResidualThreshold = 1.0e-6;

// Child-index layout of a job's trace (docs/observability.md). Root
// children: fixed slots for the markers, then attempts from
// kAttemptChildBase and re-placement / migration markers in their own
// ranges so ids never collide however recovery interleaves.
constexpr std::uint64_t kSubmitChild = 1;
constexpr std::uint64_t kQueueChild = 2;
constexpr std::uint64_t kCompleteChild = 3;
constexpr std::uint64_t kAttemptChildBase = 16;
constexpr std::uint64_t kPlaceLossChildBase = 4096;
constexpr std::uint64_t kMigrateChildBase = 8192;
// Attempt children: the place marker, the loss marker; the driver roots
// its factorize span at obs::kTraceDriverChild.
constexpr std::uint64_t kPlaceChild = 1;
constexpr std::uint64_t kLossChild = 3;

/// Clears the per-attempt transfer hook even when the attempt unwinds
/// via DeviceLostError — the machine outlives the job.
struct TransferHookGuard {
  explicit TransferHookGuard(sim::Machine& machine) : m(machine) {}
  TransferHookGuard(const TransferHookGuard&) = delete;
  TransferHookGuard& operator=(const TransferHookGuard&) = delete;
  ~TransferHookGuard() { m.set_transfer_hook({}); }
  sim::Machine& m;
};

}  // namespace

const char* to_string(JobOutcome o) {
  switch (o) {
    case JobOutcome::Completed: return "completed";
    case JobOutcome::Migrated: return "migrated";
    case JobOutcome::Degraded: return "degraded";
    case JobOutcome::ExhaustedRetries: return "exhausted_retries";
    case JobOutcome::FailStop: return "fail_stop";
  }
  return "?";
}

FactorizationService::FactorizationService(sim::Fleet& fleet,
                                           ServiceOptions options)
    : fleet_(fleet), opt_(std::move(options)) {
  FTLA_CHECK(opt_.max_retries >= 0);
  FTLA_CHECK(opt_.backoff_base_s >= 0.0);
  FTLA_CHECK(opt_.checkpoint_interval >= 1);
}

void FactorizationService::submit(JobSpec spec) {
  FTLA_CHECK(spec.n >= 1 && spec.block >= 1);
  const double now = fleet_.now();
  if (opt_.trace != nullptr) {
    if (spec.trace.trace_id == 0) {
      // The root span's id is the trace id itself; the admission
      // sequence (not wall clock, not thread order) picks it.
      spec.trace.trace_id = obs::derive_trace_id(
          opt_.trace_seed, static_cast<std::uint64_t>(admitted_));
      spec.trace.span_id = spec.trace.trace_id;
    }
    spec.trace.tenant = spec.tenant;
    span(spec.trace.trace_id,
         obs::derive_span_id(spec.trace.span_id, kSubmitChild),
         spec.trace.span_id, "submit", "marker", -1, spec.tenant, now, now,
         "ok", "job=" + std::to_string(spec.id));
  }
  QueuedJob q;
  q.spec = spec;
  q.submit_time = now;
  queue_.push_back(std::move(q));
  ++admitted_;
  counter("service.jobs.admitted", 1);
  note(now, "service:admit",
       "job=" + std::to_string(spec.id) + " n=" + std::to_string(spec.n));
}

void FactorizationService::apply(
    const std::vector<fault::DeviceFaultSpec>& plan) {
  for (const auto& s : plan) {
    FTLA_CHECK(s.device >= 0 && s.device < fleet_.size());
    switch (s.kind) {
      case fault::DeviceFaultKind::FailStop:
        fleet_.arm_loss(s.device, s.time);
        break;
      case fault::DeviceFaultKind::Stall:
        fleet_.arm_stall(s.device, s.time, s.time + s.duration);
        break;
      case fault::DeviceFaultKind::Degrade:
        fleet_.mark_degraded(s.device, s.rate_multiplier);
        counter("fleet.devices_degraded", 1);
        break;
    }
  }
}

std::vector<JobResult> FactorizationService::drain() {
  std::vector<JobResult> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) {
    QueuedJob q = std::move(queue_.front());
    queue_.pop_front();
    JobResult r = run_job(q.spec, q.submit_time);
    counter(std::string("service.jobs.") + to_string(r.outcome), 1);
    if (r.sdc) counter("service.jobs.sdc", 1);
    if (opt_.metrics != nullptr) {
      opt_.metrics->record_histogram("service.job_latency_s", r.latency());
    }
    if (opt_.timeseries != nullptr) {
      opt_.timeseries->sample_counter("service.jobs_finished", r.end_time,
                                      1.0);
    }
    if (opt_.slo != nullptr) {
      opt_.slo->record_job(r.end_time, r.success, r.sdc, r.latency());
    }
    account(r);
    note(r.end_time, "service:finish",
         "job=" + std::to_string(r.job_id) + " outcome=" +
             to_string(r.outcome) + " attempts=" +
             std::to_string(r.attempts));
    out.push_back(std::move(r));
  }
  if (opt_.metrics != nullptr) {
    opt_.metrics->set_gauge("fleet.devices",
                            static_cast<double>(fleet_.size()));
    opt_.metrics->set_gauge("fleet.devices_usable",
                            static_cast<double>(fleet_.usable_count()));
    for (const auto& [tenant, seconds] : tenant_device_seconds_) {
      opt_.metrics->set_gauge("tenant." + tenant + ".device_seconds",
                              seconds);
    }
  }
  return out;
}

int FactorizationService::pick_device() const {
  int best = -1;
  double best_now = 0.0;
  for (int d = 0; d < fleet_.size(); ++d) {
    if (fleet_.state(d) == sim::DeviceState::Lost) continue;
    const double now = fleet_.device(d).host_now();
    if (best < 0 || now < best_now) {
      best = d;
      best_now = now;
    }
  }
  return best;
}

void FactorizationService::discover_loss(int device, double time, int job_id,
                                         const char* where) {
  if (fleet_.state(device) == sim::DeviceState::Lost) return;
  fleet_.mark_lost(device);
  counter("fleet.device_losses", 1);
  if (opt_.timeseries != nullptr) {
    opt_.timeseries->sample_gauge("fleet.devices_usable", time,
                                  static_cast<double>(fleet_.usable_count()));
  }
  note(time, "service:device_lost",
       "device=" + std::to_string(device) + " job=" +
           std::to_string(job_id) + " at=" + where);
}

void FactorizationService::note(double time, const std::string& name,
                                const std::string& detail) {
  // The breadcrumb mirror gives the flight recorder the same recovery
  // chain (place → device_lost → migrate → resume) the event stream
  // carries, so a postmortem bundle reconciles without the ring buffer.
  if (opt_.recorder != nullptr) opt_.recorder->note(name + " " + detail);
  if (opt_.event_sink == nullptr) return;
  obs::Event e;
  e.kind = obs::EventKind::Note;
  e.time = time;
  e.end = time;
  e.name = name;
  e.detail = detail;
  opt_.event_sink->post(e);
}

void FactorizationService::counter(const std::string& name,
                                   long long delta) {
  if (opt_.metrics != nullptr) opt_.metrics->add_counter(name, delta);
}

void FactorizationService::span(obs::TraceId trace_id, obs::SpanId id,
                                obs::SpanId parent, const std::string& name,
                                const char* kind, int device,
                                const std::string& tenant, double start,
                                double end, const char* status,
                                const std::string& detail) {
  if (opt_.trace == nullptr || trace_id == 0) return;
  obs::TraceSpan s;
  s.trace_id = trace_id;
  s.span_id = id;
  s.parent_span = parent;
  s.name = name;
  s.kind = kind;
  s.device = device;
  s.tenant = tenant;
  s.start = start;
  s.end = end;
  s.status = status;
  s.detail = detail;
  opt_.trace->record(s);
}

void FactorizationService::account(const JobResult& r) {
  if (r.tenant.empty()) return;
  const std::string base = "tenant." + r.tenant;
  counter(base + ".jobs", 1);
  counter(base + ".retries", std::max(0, r.attempts - 1));
  counter(base + ".migrations", r.migrations);
  counter(base + ".checkpoint_bytes", r.checkpoint_bytes);
  if (r.sdc) counter(base + ".sdc", 1);
  tenant_device_seconds_[r.tenant] += r.device_seconds;
}

JobResult FactorizationService::run_job(const JobSpec& spec,
                                        double submit_time) {
  JobResult r;
  r.job_id = spec.id;
  r.submit_time = submit_time;
  r.tenant = spec.tenant;
  r.trace_id = spec.trace.trace_id;

  const bool tracing = opt_.trace != nullptr && spec.trace.valid();
  const obs::SpanId root = spec.trace.span_id;
  int place_losses = 0;

  const bool numeric = fleet_.numeric();
  const int n = spec.n;

  // The pristine input regenerates each attempt's working copy: a dead
  // attempt may leave partially factored state behind, and the oracle
  // needs the original anyway.
  Matrix<double> pristine;
  if (numeric) {
    pristine = Matrix<double>(n, n);
    make_spd_diag_dominant(pristine, spec.matrix_seed);
  }

  // Host-side panel checkpoint: lives with the job, not the device, so
  // it survives a loss and seeds the migrated attempt.
  abft::PanelCheckpoint ck;

  // One soft-error process for the whole job, with an independent
  // arrival stream per device: a fault storm on the device that dies
  // does not consume the replacement device's budget.
  std::unique_ptr<fault::FaultProcess> proc;
  if (numeric && spec.mtbf_s > 0.0) {
    fault::ProcessConfig pc;
    pc.mtbf_s = spec.mtbf_s;
    pc.seed = spec.fault_seed;
    pc.max_arrivals = spec.max_arrivals;
    pc.devices = fleet_.size();
    proc = std::make_unique<fault::FaultProcess>(pc, spec.nblocks());
    for (int d = 0; d < fleet_.size(); ++d) {
      if (fleet_.degrade_factor(d) > 1.0) {
        proc->set_rate_multiplier(d, fleet_.degrade_factor(d));
      }
    }
  }

  const bool admitted_degraded = fleet_.usable_count() < fleet_.size();
  double earliest = submit_time;

  for (;;) {
    const int dev = pick_device();
    if (dev < 0) {
      r.outcome = JobOutcome::FailStop;
      r.end_time = fleet_.now();
      r.note = "no usable devices";
      break;
    }
    sim::Machine& m = fleet_.device(dev);

    // Clock catch-up to the job's earliest start. A loss discovered
    // here means the device died before this job began there: that is
    // a re-placement, not a migration, and costs no retry.
    try {
      if (m.host_now() < earliest) m.host_advance(earliest - m.host_now());
    } catch (const sim::DeviceLostError& e) {
      discover_loss(dev, e.at(), spec.id, "placement");
      if (tracing) {
        ++place_losses;
        span(r.trace_id,
             obs::derive_span_id(
                 root, kPlaceLossChildBase +
                           static_cast<std::uint64_t>(place_losses)),
             root, "loss", "marker", dev, spec.tenant, e.at(), e.at(),
             "loss", "at=placement device=" + std::to_string(dev));
      }
      continue;
    }

    ++r.attempts;
    r.device = dev;
    const double t0 = m.host_now();
    if (r.attempts == 1) r.start_time = t0;
    const obs::SpanId attempt_id = obs::derive_span_id(
        root, kAttemptChildBase + static_cast<std::uint64_t>(r.attempts));
    if (tracing) {
      if (r.attempts == 1) {
        span(r.trace_id, obs::derive_span_id(root, kQueueChild), root,
             "queue", "queue", -1, spec.tenant, submit_time, t0, "ok", "");
      }
      span(r.trace_id, obs::derive_span_id(attempt_id, kPlaceChild),
           attempt_id, "place", "marker", dev, spec.tenant, t0, t0, "ok",
           "attempt=" + std::to_string(r.attempts));
    }
    note(t0, "service:place",
         "job=" + std::to_string(spec.id) + " device=" +
             std::to_string(dev) + " attempt=" +
             std::to_string(r.attempts));
    if (ck.usable(spec.n, spec.block)) {
      note(t0, "service:resume",
           "job=" + std::to_string(spec.id) + " iterations=" +
               std::to_string(ck.iterations));
    }
    const int ck_iters_before = ck.iterations;

    Matrix<double> a;
    if (numeric) a = pristine;

    fault::Injector inj({}, fault::EccModel{spec.ecc});
    inj.set_clock([&m] { return m.host_now(); });
    if (proc != nullptr) {
      proc->set_active_device(dev);
      inj.attach_process(proc.get());
    }

    // Transfer-corruption hook, campaign-style: process arrivals come
    // back as skeletons concretized from the in-flight copy's shape.
    Rng xfer_rng(spec.fault_seed ^ 0x7f4a7c15ULL ^
                 static_cast<std::uint64_t>(r.attempts));
    TransferHookGuard hook_guard(m);
    if (proc != nullptr) {
      m.set_transfer_hook([&](const sim::TransferCtx& ctx) {
        fault::strike_transfer(
            inj, inj.take_transfer(ctx.seq, ctx.end, ctx.armed), ctx.data,
            ctx.rows, ctx.cols, ctx.ld, ctx.dev_off, n, xfer_rng, proc.get());
      });
    }

    // A scratch registry activates the driver's telemetry layer, which
    // is what correlates corrections back to injections.
    obs::MetricsRegistry scratch_metrics;

    abft::CholeskyOptions o;
    o.variant = spec.variant;
    o.block_size = spec.block;
    o.verify_interval = spec.verify_interval;
    o.placement = spec.placement;
    o.recovery = spec.recovery;
    o.checkpoint_interval = opt_.checkpoint_interval;
    o.transfer_guard = spec.transfer_guard;
    o.metrics = &scratch_metrics;
    if (numeric && opt_.checkpoint_resume) o.panel_checkpoint = &ck;
    if (tracing) {
      o.trace = opt_.trace;
      o.trace_ctx = spec.trace;
      o.trace_ctx.span_id = attempt_id;
      o.trace_ctx.device = dev;
    }

    abft::CholeskyResult res;
    try {
      res = abft::cholesky(m, numeric ? &a : nullptr, n, o,
                           numeric ? &inj : nullptr);
    } catch (const sim::DeviceLostError& e) {
      discover_loss(dev, e.at(), spec.id, "mid-run");
      r.faults_fired += inj.fired_count();
      r.faults_detected += inj.detected_count();
      r.device_seconds += e.at() - t0;
      // The lost attempt's driver result unwound with the exception;
      // the checkpoint's growth is the bytes it shipped before dying.
      r.checkpoint_bytes +=
          static_cast<std::int64_t>(ck.iterations - ck_iters_before) *
          spec.block * n * static_cast<int>(sizeof(double));
      ++r.migrations;
      counter("service.migrations", 1);
      if (tracing) {
        span(r.trace_id, obs::derive_span_id(attempt_id, kLossChild),
             attempt_id, "loss", "marker", dev, spec.tenant, e.at(), e.at(),
             "loss", "at=mid-run");
        span(r.trace_id, attempt_id, root, "attempt", "attempt", dev,
             spec.tenant, t0, e.at(), "loss",
             "attempt=" + std::to_string(r.attempts));
      }
      if (r.attempts >= 1 + opt_.max_retries) {
        r.outcome = JobOutcome::ExhaustedRetries;
        r.end_time = e.at();
        r.note = "retry budget exhausted after device loss";
        break;
      }
      counter("service.retries", 1);
      // Deterministic exponential backoff on the virtual clock.
      earliest =
          e.at() + opt_.backoff_base_s * std::ldexp(1.0, r.attempts - 1);
      if (tracing) {
        span(r.trace_id,
             obs::derive_span_id(
                 root, kMigrateChildBase +
                           static_cast<std::uint64_t>(r.migrations)),
             root, "migrate", "migrate", -1, spec.tenant, e.at(), earliest,
             "ok",
             "from=" + std::to_string(dev) + " resume_iterations=" +
                 std::to_string(ck.iterations));
      }
      note(e.at(), "service:migrate",
           "job=" + std::to_string(spec.id) + " from=" +
               std::to_string(dev) + " resume_iters=" +
               std::to_string(ck.iterations) + " not_before=" +
               std::to_string(earliest));
      continue;
    }

    r.end_time = m.host_now();
    r.seconds = res.seconds;
    r.resumed_iterations = res.resumed_iterations;
    r.reruns += res.reruns;
    r.rollbacks += res.rollbacks;
    r.faults_fired += inj.fired_count();
    r.faults_detected += inj.detected_count();
    r.device_seconds += r.end_time - t0;
    r.checkpoint_bytes += res.checkpoint_bytes;
    if (tracing) {
      span(r.trace_id, attempt_id, root, "attempt", "attempt", dev,
           spec.tenant, t0, r.end_time, res.success ? "ok" : "error",
           "attempt=" + std::to_string(r.attempts));
    }
    r.note = res.note;
    if (!res.success) {
      r.outcome = JobOutcome::FailStop;
    } else {
      r.success = true;
      if (numeric) {
        r.residual = blas::cholesky_residual(pristine.view(), a.view());
        // NaN-safe: a NaN residual must read as corrupt.
        r.sdc = !(r.residual < kResidualThreshold);
      }
      r.outcome = r.migrations > 0      ? JobOutcome::Migrated
                  : admitted_degraded   ? JobOutcome::Degraded
                                        : JobOutcome::Completed;
    }
    break;
  }
  if (tracing) {
    span(r.trace_id, obs::derive_span_id(root, kCompleteChild), root,
         "complete", "marker", r.device, spec.tenant, r.end_time, r.end_time,
         to_string(r.outcome), "");
    span(r.trace_id, root, 0, "job", "job", r.device, spec.tenant,
         submit_time, r.end_time, r.success ? "ok" : "error",
         "job=" + std::to_string(spec.id));
  }
  return r;
}

}  // namespace ftla::service
