#include "abft/driver.hpp"

#include <cmath>
#include <string>

#include "abft/cholesky.hpp"
#include "common/error.hpp"
#include "common/fp.hpp"
#include "runtime/executor.hpp"
#include "runtime/sanitizer.hpp"

namespace ftla::abft::detail {

using sim::EventId;
using sim::StreamId;

Driver::Driver(sim::Machine& m, Matrix<double>* a, int n,
               const FactorOptions& opt, fault::Injector* injector,
               Ladder ladder, const char* name, double flops)
    : m_(m), a_(a), n_(n), opt_(opt), injector_(injector),
      tel_(m, opt.event_sink, opt.metrics, injector, opt.profile,
           opt.timeseries),
      ladder_(ladder), name_(name), flops_(flops) {
  FTLA_CHECK(n_ > 0);
  if (m_.numeric()) {
    FTLA_CHECK_MSG(a_ != nullptr && a_->rows() == n_ && a_->cols() == n_,
                   "Numeric mode needs the host matrix");
  }
  FTLA_CHECK_MSG(injector_ == nullptr || m_.numeric(),
                 "fault injection requires Numeric mode");
  FTLA_CHECK(opt_.verify_interval >= 1);
  b_ = resolve_block_size(m_.profile(), opt_);
  nb_ = (n_ + b_ - 1) / b_;
  ft_ = opt_.variant != Variant::NoFt;
}

// ----------------------------------------------------------------------
// The rerun ladder
// ----------------------------------------------------------------------

CholeskyResult Driver::execute() {
  allocate();
  if (m_.numeric()) pristine_ = *a_;
  upload();
  m_.sync_all();
  const double t0 = m_.host_now();

  if (trace_ != nullptr && resume_from_ > 0) {
    trace_span(obs::derive_span_id(trace_factorize_, 1), trace_factorize_,
               "resume", "marker", t0, t0, "ok",
               "iterations=" + std::to_string(resume_from_));
  }

  int passes = 0;
  double pass_start = 0.0;
  bool done = false;
  try {
    while (!done) {
      ++passes;
      trace_pass_ = obs::derive_span_id(
          trace_factorize_, obs::kTraceIterationChildBase +
                                static_cast<std::uint64_t>(passes));
      pass_start = m_.host_now();
      try {
        run_once();
        done = true;
        result_.success = true;
        trace_span(trace_pass_, trace_factorize_, "pass", "pass", pass_start,
                   m_.host_now(), "ok");
      } catch (const Error& e) {
        const bool npd =
            dynamic_cast<const NotPositiveDefiniteError*>(&e) != nullptr;
        const bool typed =
            npd ||
            dynamic_cast<const UnrecoverableCorruptionError*>(&e) != nullptr;
        if (ladder_ == Ladder::Typed && !typed) throw;
        const char* reason =
            npd ? "not_positive_definite" : "unrecoverable_corruption";
        trace_span(trace_pass_, trace_factorize_, "pass", "pass", pass_start,
                   m_.host_now(), "error", reason);
        result_.fail_stop_observed |= npd;
        const bool labelled = ladder_ == Ladder::Typed;
        if (!ft_ || result_.reruns >= opt_.max_reruns) {
          result_.note =
              labelled ? std::string(npd ? "fail-stop: " : "unrecoverable: ") +
                             e.what()
                       : std::string(e.what());
          done = true;
        } else {
          ++result_.reruns;
          tel_.rerun(result_.reruns, labelled ? reason : e.what());
          const obs::PhaseScope recover(tel_.profile(), obs::Phase::Recover);
          upload();
        }
      }
    }
  } catch (...) {
    // A device loss (or any other failure the ladder does not handle)
    // unwinds out of the driver: close the open pass and factorize spans
    // first so the trace keeps its parentage intact — the service's
    // attempt span records the loss itself.
    const double at = m_.host_now();
    trace_span(trace_pass_, trace_factorize_, "pass", "pass", pass_start, at,
               "loss");
    trace_span(trace_factorize_, trace_ctx_.span_id, "factorize", "driver",
               t0, at, "loss");
    throw;
  }

  m_.sync_all();
  result_.seconds = m_.host_now() - t0;
  result_.gflops =
      result_.seconds > 0.0 ? flops_ / result_.seconds / 1e9 : 0.0;
  trace_span(trace_factorize_, trace_ctx_.span_id, "factorize", "driver",
             t0, t0 + result_.seconds, result_.success ? "ok" : "error");
  if (result_.success) download();
  return result_;
}

void Driver::run_once() {
  if (use_dag()) {
    run_once_dag();
    return;
  }
  encode();
  // Stochastic transfer faults cover the H2D copies between encode and
  // the final download (a corrupted *initial* upload is indistinguishable
  // from a different input). D2H staging copies stay out of the armed
  // surface unless a driver arms one where an arrival check exists.
  sim::TransferArmGuard arm(m_, /*h2d=*/true, /*d2h=*/false);
  for (int j = 0; j < nb_; ++j) iterate(j);
  if (ft_) final_sweep();
  m_.sync_all();
}

void Driver::upload() {
  m_.memcpy_h2d(d_a_, 0, m_.numeric() ? pristine_.data() : nullptr,
                static_cast<std::int64_t>(n_) * n_, s_compute_,
                /*blocking=*/true);
}

void Driver::download() {
  if (!m_.numeric()) return;
  // Outside the timed section: MAGMA leaves the factor on the device;
  // callers fetch it separately.
  m_.memcpy_d2h(a_->data(), d_a_, 0, static_cast<std::int64_t>(n_) * n_,
                s_compute_, /*blocking=*/true);
}

void Driver::create_streams(bool xfer_lane) {
  s_compute_ = m_.default_stream();
  s_xfer_ = s_compute_;
  if (ft_) s_chk_ = m_.create_stream();
  if (xfer_lane) s_xfer_ = m_.create_stream();
  if (!ft_) return;
  int streams = opt_.recalc_streams > 0 ? opt_.recalc_streams
                                        : m_.profile().max_concurrent_kernels;
  if (!opt_.concurrent_recalc) streams = 1;
  s_recalc_.clear();
  for (int i = 0; i < streams; ++i) s_recalc_.push_back(m_.create_stream());
}

void Driver::encode() {
  if (!ft_) return;
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Encode);
  const EventId e_up = m_.record_event(s_compute_);
  for (StreamId s : s_recalc_) m_.stream_wait_event(s, e_up);
  std::size_t q = 0;
  for (int k = 0; k < nb_; ++k) {
    for (int i = 0; i < nb_; ++i) {
      if (!carries_checksums(i, k)) continue;
      issue_encode(s_recalc_[q++ % s_recalc_.size()], i, k);
    }
  }
  for (StreamId s : s_recalc_) {
    const EventId e = m_.record_event(s);
    m_.stream_wait_event(s_compute_, e);
    m_.stream_wait_event(s_chk_, e);
  }
}

// ----------------------------------------------------------------------
// Verification
// ----------------------------------------------------------------------

void Driver::count_verified(fault::Op attr, std::size_t blocks) {
  const auto n = static_cast<long long>(blocks);
  switch (attr) {
    case fault::Op::Potf2: result_.verified.potf2_blocks += n; break;
    case fault::Op::Trsm: result_.verified.trsm_blocks += n; break;
    case fault::Op::Syrk: result_.verified.syrk_blocks += n; break;
    case fault::Op::Gemm: result_.verified.gemm_blocks += n; break;
  }
  tel_.verify_scheduled(attr, blocks);
}

void Driver::absorb(const VerifyOutcome& out, const char* uncorrectable) {
  result_.errors_detected += out.errors_detected;
  result_.errors_corrected += out.errors_corrected;
  result_.checksum_repairs += out.checksum_repairs;
  if (out.uncorrectable) throw UnrecoverableCorruptionError(uncorrectable);
}

void Driver::verify_batch(const std::vector<BlockId>& blocks, fault::Op attr,
                          Sums sums) {
  if (!ft_ || blocks.empty()) return;
  // Recalc kernels classify as Recalc by name; the scope catches the
  // neutral spans issued here.
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Verify);
  count_verified(attr, blocks.size());

  // Recalc kernels must observe the data state after all compute so far
  // and the checksum state after all updates so far.
  const EventId e_comp = m_.record_event(s_compute_);
  const EventId e_chk = m_.record_event(chk_stream());
  const int nstreams =
      std::max(1, std::min(static_cast<int>(s_recalc_.size()),
                           static_cast<int>(blocks.size())));
  for (int i = 0; i < nstreams; ++i) {
    m_.stream_wait_event(s_recalc_[i], e_comp);
    m_.stream_wait_event(s_recalc_[i], e_chk);
  }
  // Recalculated checksums lie side by side in the scratch buffer.
  std::int64_t pos = 0;
  for (std::size_t q = 0; q < blocks.size(); ++q) {
    const auto [bi, bk] = blocks[q];
    const std::int64_t width = 2LL * (sums == Sums::Rows ? bs(bi) : bs(bk));
    FTLA_CHECK(pos + width <= scratch_capacity_);
    issue_verify(sums, s_recalc_[q % nstreams], bi, bk, attr, pos,
                 cur_iter_);
    pos += width;
  }
  for (int i = 0; i < nstreams; ++i) {
    const EventId e = m_.record_event(s_recalc_[i]);
    m_.stream_wait_event(s_compute_, e);
    m_.stream_wait_event(chk_stream(), e);
  }
}

void Driver::dag_verify(runtime::TaskGraph& g, int bi, int bk,
                        fault::Op attr, int iter, Sums sums) {
  if (!ft_) return;
  count_verified(attr, 1);
  const std::int64_t nslots = scratch_capacity_ / (2LL * b_);
  const int slot = static_cast<int>(dag_slot_++ % nslots);
  const std::int64_t pos = static_cast<std::int64_t>(slot) * 2 * b_;
  runtime::TaskOptions opts;
  opts.phase = obs::Phase::Verify;
  opts.iteration = iter;
  // Corrections write the block and re-derive its checksums, so every
  // checksum tile of the block is read-write. A graph holds one
  // footprint and one closure per verify task, so both stay exactly
  // sized: the body re-derives the checksum tiles instead of capturing
  // them.
  const std::vector<runtime::TileKey> chk = chk_tiles(bi, bk);
  std::vector<runtime::Footprint> fp;
  fp.reserve(chk.size() + 2);
  fp.push_back(runtime::rw(dtile(bi, bk)));
  for (const runtime::TileKey& t : chk) fp.push_back(runtime::rw(t));
  fp.push_back(runtime::write(stile(slot)));
  g.add_task(verify_task_name(sums), std::move(fp),
             [this, sums, bi, bk, attr, pos, slot,
              iter](const runtime::TaskContext& c) {
               c.tiles.rw(dtile(bi, bk));
               for (const runtime::TileKey& t : chk_tiles(bi, bk)) {
                 c.tiles.rw(t);
               }
               c.tiles.write(stile(slot));
               issue_verify(sums, c.stream, bi, bk, attr, pos, iter);
             },
             opts);
}

// ----------------------------------------------------------------------
// Fault hooks
// ----------------------------------------------------------------------

void Driver::hook_storage(fault::Op op, int j) {
  if (injector_ == nullptr) return;
  for (const auto& spec : injector_->take(fault::FaultType::Storage, op, j)) {
    strike(spec, j);
  }
}

void Driver::hook_computing(fault::Op op, int j) {
  if (injector_ == nullptr) return;
  for (const auto& spec :
       injector_->take(fault::FaultType::Computing, op, j)) {
    strike(spec, j);
  }
}

void Driver::strike(const fault::FaultSpec& spec, int j) {
  if (!m_.numeric()) return;
  const auto [bi, bk] = strike_target(spec, j);
  FTLA_CHECK(bi >= 0 && bi < nb_ && bk >= 0 && bk < nb_);
  FTLA_CHECK_MSG(spec.elem_row >= 0 && spec.elem_col >= 0,
                 "fault element coordinates must be non-negative");
  int row = 0;
  int col = 0;
  double* p = spec.type == fault::FaultType::Storage && spec.target_checksum
                  ? checksum_cell(spec, bi, bk, &row, &col)
                  : nullptr;
  if (p == nullptr) {
    row = off(bi) + std::min(spec.elem_row, bs(bi) - 1);
    col = off(bk) + std::min(spec.elem_col, bs(bk) - 1);
    p = d_a_.data() + static_cast<std::int64_t>(col) * n_ + row;
  }
  const double old_value = *p;
  if (spec.type == fault::FaultType::Computing) {
    *p = old_value + spec.magnitude * std::max(1.0, std::abs(old_value));
  } else {
    for (int bit : spec.bits) *p = flip_bit(*p, bit);
  }
  injector_->record(spec, old_value, *p, row, col);
}

void Driver::dag_hook(runtime::TaskGraph& g, const char* name, int iter,
                      std::function<void()> fn) {
  // Fault hooks consume injector state at a fixed program point; they
  // issue no machine work, so an empty footprint keeps them out of the
  // dependency structure while insertion order fixes *when* they fire.
  if (injector_ == nullptr) return;
  runtime::TaskOptions opts;
  opts.phase = obs::Phase::Base;
  opts.iteration = iter;
  opts.where = runtime::Where::Inline;
  g.add_task(name, {},
             [fn = std::move(fn)](const runtime::TaskContext&) { fn(); },
             opts);
}

// ----------------------------------------------------------------------
// Task-graph (DAG) runtime path (docs/runtime.md)
//
// The graph is built in exactly the order the bulk path issues its
// machine operations, every task carries its data footprint, and all
// inferred edges point from earlier to later tasks — so the executor's
// deterministic (priority, insertion) schedule issues tasks in bulk
// program order and the numeric results (and fault-hook firing points)
// are bit-identical to Bulk by construction. Only the *virtual-time*
// placement differs: instead of the bulk barriers (every verification
// batch fences all prior compute), each task waits for its true
// dependencies, so one iteration's trailing update overlaps the next
// one's panel work, verify tasks hide in compute/transfer slack, and
// the end sweep over retired blocks overlaps the factorization tail.
// ----------------------------------------------------------------------

void Driver::dag_encode(runtime::TaskGraph& g) {
  runtime::TaskOptions opts;
  opts.phase = obs::Phase::Encode;
  for (int k = 0; k < nb_; ++k) {
    for (int i = 0; i < nb_; ++i) {
      if (!carries_checksums(i, k)) continue;
      const std::vector<runtime::TileKey> chk = chk_tiles(i, k);
      std::vector<runtime::Footprint> fp;
      fp.reserve(chk.size() + 1);
      fp.push_back(runtime::read(dtile(i, k)));
      for (const runtime::TileKey& t : chk) fp.push_back(runtime::write(t));
      g.add_task("encode", std::move(fp),
                 [this, i, k](const runtime::TaskContext& c) {
                   c.tiles.read(dtile(i, k));
                   for (const runtime::TileKey& t : chk_tiles(i, k)) {
                     c.tiles.write(t);
                   }
                   issue_encode(c.stream, i, k);
                 },
                 opts);
    }
  }
}

std::vector<StreamId> Driver::dag_streams() const {
  std::vector<StreamId> streams{s_compute_};
  if (ft_) streams.push_back(s_chk_);
  if (s_xfer_ != s_compute_) streams.push_back(s_xfer_);
  streams.insert(streams.end(), s_recalc_.begin(), s_recalc_.end());
  return streams;
}

void Driver::run_once_dag() {
  dag_slot_ = 0;
  runtime::TaskGraph g;
  if (ft_) dag_encode(g);
  for (int j = 0; j < nb_; ++j) dag_iteration(g, j);
  cur_iter_ = -1;
  if (ft_) dag_sweep(g);
  // Opt-in dynamic footprint sanitizer (docs/static-analysis.md): the
  // executor hands every body a recording TileAccessor, and any access
  // outside a declared footprint — or unordered by happens-before —
  // fails the run with the tracker's report.
  runtime::AccessTracker tracker;
  const bool sanitize = runtime::sanitize_env_enabled();
  if (sanitize) g.set_access_tracker(&tracker);
  // Same transfer-fault arming as the bulk path.
  sim::TransferArmGuard arm(m_, /*h2d=*/true, /*d2h=*/false);
  runtime::StreamRunOptions ropts;
  ropts.streams = dag_streams();
  ropts.profile = tel_.profile();
  ropts.metrics = opt_.metrics;
  ropts.schedule_seed = opt_.dag_schedule_seed;
  if (trace_ != nullptr) {
    // DAG task spans hang off the current pass span, ids derived from
    // node ids — the same graph traces to the same ids at any schedule.
    ropts.trace = trace_;
    ropts.trace_ctx = trace_ctx_;
    ropts.trace_ctx.span_id = trace_pass_;
  }
  runtime::run_on_streams(g, m_, ropts);
  after_graph();
  m_.sync_all();
  if (sanitize && !tracker.clean()) {
    throw Error(std::string(name_) + " DAG failed footprint sanitizing\n" +
                tracker.report(g));
  }
}

// ----------------------------------------------------------------------
// Causal tracing
// ----------------------------------------------------------------------

void Driver::enable_trace(obs::TraceStore* store,
                          const obs::TraceContext& ctx) {
  if (store == nullptr || !ctx.valid()) return;
  trace_ = store;
  trace_ctx_ = ctx;
  trace_factorize_ = obs::derive_span_id(ctx.span_id, obs::kTraceDriverChild);
}

void Driver::trace_span(obs::SpanId id, obs::SpanId parent, const char* name,
                        const char* kind, double start, double end,
                        const char* status, std::string detail) {
  if (trace_ == nullptr) return;
  obs::TraceSpan s;
  s.trace_id = trace_ctx_.trace_id;
  s.span_id = id;
  s.parent_span = parent;
  s.name = name;
  s.kind = kind;
  s.device = trace_ctx_.device;
  s.tenant = trace_ctx_.tenant;
  s.start = start;
  s.end = end;
  s.status = status;
  s.detail = std::move(detail);
  trace_->record(s);
}

}  // namespace ftla::abft::detail
