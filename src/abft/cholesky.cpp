#include "abft/cholesky.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "abft/driver.hpp"
#include "abft/opt2_model.hpp"
#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/types.hpp"
#include "common/error.hpp"
#include "sim/device_matrix.hpp"
#include "sim/gpublas.hpp"

namespace ftla::abft {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;
using sim::DConstMat;
using sim::DeviceBuffer;
using sim::DMat;
using sim::EventId;
using sim::KernelClass;
using sim::KernelDesc;
using sim::Machine;
using sim::StreamId;

const char* to_string(Variant v) {
  switch (v) {
    case Variant::NoFt: return "no-ft";
    case Variant::Offline: return "offline-abft";
    case Variant::Online: return "online-abft";
    case Variant::EnhancedOnline: return "enhanced-online-abft";
  }
  return "?";
}

const char* to_string(UpdatePlacement p) {
  switch (p) {
    case UpdatePlacement::Blocking: return "blocking";
    case UpdatePlacement::Gpu: return "gpu";
    case UpdatePlacement::Cpu: return "cpu";
    case UpdatePlacement::Auto: return "auto";
  }
  return "?";
}

const char* to_string(Recovery r) {
  return r == Recovery::Rerun ? "rerun" : "checkpoint";
}

const char* to_string(RuntimeMode m) {
  return m == RuntimeMode::Dag ? "dag" : "bulk";
}

int resolve_block_size(const sim::MachineProfile& profile,
                       const FactorOptions& options) {
  return options.block_size > 0 ? options.block_size
                                : profile.magma_block_size;
}

namespace {

using detail::BlockId;
using detail::Sums;

constexpr const char* kUncorrectable = "more than one error per block column";

class Run final : public detail::Driver {
 public:
  Run(Machine& m, Matrix<double>* a, int n, const CholeskyOptions& opt,
      fault::Injector* injector)
      : Driver(m, a, n, opt, injector, Ladder::Typed, "cholesky",
               static_cast<double>(n) * n * n / 3.0),
        copt_(opt) {
    FTLA_CHECK(copt_.checkpoint_interval >= 1);
    FTLA_CHECK(opt_.max_reruns >= 0 && copt_.max_rollbacks >= 0);
    placement_ = copt_.placement;
    if (!ft_) placement_ = UpdatePlacement::Gpu;  // no checksums to place
    if (placement_ == UpdatePlacement::Auto) {
      placement_ = opt2_decide(m_.profile(), n_, b_, opt_.verify_interval)
                       .decision;
    }
    if (ft_ && tel_.active()) {
      const Opt2Estimate est =
          opt2_decide(m_.profile(), n_, b_, opt_.verify_interval);
      tel_.placement_decided(copt_.placement, placement_, est.t_pick_gpu_s,
                             est.t_pick_cpu_s);
    }
    result_.chosen_placement = placement_;
    // Panel checkpointing needs real panel data, so it is Numeric-only;
    // a TimingOnly run silently ignores the store.
    ck_ = m_.numeric() ? copt_.panel_checkpoint : nullptr;
    if (ck_ != nullptr) {
      if (ck_->usable(n_, b_) && ck_->columns.rows() == n_ &&
          ck_->columns.cols() == n_) {
        resume_from_ = std::min(ck_->iterations, nb_);
        ck_->iterations = resume_from_;
      } else {
        ck_->n = n_;
        ck_->block = b_;
        ck_->iterations = 0;
        if (ck_->columns.rows() != n_ || ck_->columns.cols() != n_) {
          ck_->columns = Matrix<double>(n_, n_);
        }
      }
      result_.resumed_iterations = resume_from_;
    }
    enable_trace(copt_.trace, copt_.trace_ctx);
  }

 private:
  // ---- geometry -----------------------------------------------------
  /// Device checksum rows (2 x cols of block (i,k)).
  [[nodiscard]] DMat chk_block(int i, int k) {
    return DMat{&d_chk_,
                static_cast<std::int64_t>(off(k)) * (2 * nb_) + 2 * i,
                kChecksumRows, bs(k), 2 * nb_};
  }
  /// Device checksum strip: rows of block-rows [i0, i1) over element
  /// columns [col, col+cols).
  [[nodiscard]] DMat chk_strip(int i0, int i1, int col, int cols) {
    return DMat{&d_chk_, static_cast<std::int64_t>(col) * (2 * nb_) + 2 * i0,
                2 * (i1 - i0), cols, 2 * nb_};
  }
  /// Host mirror equivalents (placement == Cpu).
  [[nodiscard]] MatrixView<double> h_chk_block(int i, int k) {
    return h_chk_.block(2 * i, off(k), kChecksumRows, bs(k));
  }
  [[nodiscard]] MatrixView<double> h_chk_strip(int i0, int i1, int col,
                                               int cols) {
    return h_chk_.block(2 * i0, col, 2 * (i1 - i0), cols);
  }
  /// Checksum rows of the diagonal block j staged on the host: the CPU
  /// mirror itself, or the copy riding along with the block.
  [[nodiscard]] MatrixView<double> h_diag_chk(int j) {
    return placement_ == UpdatePlacement::Cpu
               ? h_chk_block(j, j)
               : h_diag_chk_.block(0, 0, kChecksumRows, bs(j));
  }

  // ---- the Driver skeleton's hooks -------------------------------------
  void allocate() override;
  void upload() override;
  void run_once() override;
  void iterate(int j) override;
  void dag_iteration(runtime::TaskGraph& g, int j) override;
  void dag_sweep(runtime::TaskGraph& g) override;
  void after_graph() override;
  /// The DAG path expresses the same kernel sequence as a dependency
  /// graph (docs/runtime.md). It covers the device-resident checksum
  /// placements and Rerun recovery; the remaining combinations (CPU
  /// checksum mirror, checkpoint recovery, fleet panel checkpoints)
  /// fall back to the bulk-synchronous oracle.
  [[nodiscard]] bool use_dag() const override {
    return opt_.runtime == RuntimeMode::Dag &&
           placement_ != UpdatePlacement::Cpu && !checkpointing_ &&
           ck_ == nullptr;
  }
  /// Checksums cover the lower triangle only.
  [[nodiscard]] bool carries_checksums(int i, int k) const override {
    return i >= k;
  }
  [[nodiscard]] std::vector<runtime::TileKey> chk_tiles(
      int i, int k) const override {
    return {ctile(i, k)};
  }
  void issue_encode(StreamId s, int i, int k) override;
  void issue_verify(Sums sums, StreamId s, int bi, int bk, fault::Op attr,
                    std::int64_t pos, int iter) override;
  [[nodiscard]] const char* verify_task_name(Sums /*sums*/) const override {
    return "verify";
  }
  [[nodiscard]] StreamId chk_stream() const override {
    return placement_ == UpdatePlacement::Gpu ? s_chk_ : s_compute_;
  }
  [[nodiscard]] BlockId strike_target(const fault::FaultSpec& spec,
                                      int j) const override;
  double* checksum_cell(const fault::FaultSpec& spec, int bi, int bk,
                        int* row, int* col) override;

  // ---- phases --------------------------------------------------------
  void take_checkpoint(int next_iter);
  void save_panels(int upto);
  void rollback();
  void offline_final_verify();

  // ---- checksum maintenance -------------------------------------------
  void chk_update_syrk(int j);
  void chk_update_gemm(int j);
  void chk_update_trsm(int j, EventId e_l_ready);
  void fetch_panel_for_cpu_update(int j);
  void wait_panel(int j);

  // ---- host diagonal section (shared by bulk and DAG) ------------------
  void stage_diag(StreamId s, int j);
  void host_potf2(int j);
  void host_chk_potf2(int j);
  void host_verify_diag(int j, bool arrival);
  void return_factor(StreamId s, int j);

  // ---- verification ----------------------------------------------------
  /// A bulk verification batch; placement Cpu compares on the host.
  void verify_blocks(const std::vector<BlockId>& blocks, fault::Op attr);
  void poll_window_faults(fault::Op op, int j);

  // Tile namespace for the checksum blocks; the host tile is the reused
  // diagonal staging buffer (h_diag_ + h_diag_chk_).
  enum CholeskyTile : int { kTileChk = kTileDriver };
  [[nodiscard]] static runtime::TileKey ctile(int i, int k) {
    return {kTileChk, i, k};
  }

  // ---- members ----------------------------------------------------------
  const CholeskyOptions& copt_;
  UpdatePlacement placement_ = UpdatePlacement::Gpu;

  DeviceBuffer d_chk_;

  // Checkpoint state (Recovery::Checkpoint): on-device snapshots of the
  // matrix (and checksums), plus a host snapshot of the checksum mirror
  // when updating runs on the CPU.
  bool checkpointing_ = false;
  DeviceBuffer d_ckpt_a_;
  DeviceBuffer d_ckpt_chk_;
  Matrix<double> h_ckpt_chk_;
  int ckpt_iter_ = 0;

  // Fleet panel-checkpoint store (options.panel_checkpoint, Numeric
  // only): host-side slab of retired panel columns, refreshed every
  // checkpoint_interval iterations; the run starts at resume_from_ when
  // the store seeded it.
  PanelCheckpoint* ck_ = nullptr;

  Matrix<double> h_chk_;        // host checksum mirror (placement Cpu)
  Matrix<double> h_scratch_;    // host landing area for recalc batches
  Matrix<double> h_diag_;       // host diagonal block for POTF2
  Matrix<double> h_diag_chk_;   // its checksum rows
  // Double-buffered host copies of the decomposed row panel (placement
  // Cpu): the panel for iteration j+1 is prefetched over PCIe while the
  // host still works with iteration j's buffer.
  Matrix<double> h_panel_[2];
  EventId panel_event_[2] = {-1, -1};
  int panel_iter_[2] = {-1, -1};
};

void Run::allocate() {
  d_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
  if (ft_) {
    d_chk_ = m_.alloc(static_cast<std::int64_t>(2 * nb_) * n_);
    scratch_capacity_ =
        2 * (static_cast<std::int64_t>(nb_) * nb_ * b_ + 2LL * nb_ * b_);
    d_scratch_ = m_.alloc(scratch_capacity_);
    if (m_.numeric()) {
      h_scratch_ = Matrix<double>(2, static_cast<int>(scratch_capacity_ / 2));
      if (placement_ == UpdatePlacement::Cpu) {
        h_chk_ = Matrix<double>(2 * nb_, n_);
        h_panel_[0] = Matrix<double>(b_, n_);
        h_panel_[1] = Matrix<double>(b_, n_);
      }
    }
    h_diag_chk_ = Matrix<double>(kChecksumRows, b_);
  }
  h_diag_ = Matrix<double>(b_, b_);

  checkpointing_ = copt_.recovery == Recovery::Checkpoint &&
                   opt_.variant != Variant::Offline;
  if (checkpointing_) {
    d_ckpt_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
    if (ft_ && placement_ != UpdatePlacement::Cpu) {
      d_ckpt_chk_ = m_.alloc(static_cast<std::int64_t>(2 * nb_) * n_);
    }
  }
  // NoFt DAG gets one extra lane so the graph can overlap the diagonal
  // staging copies with the trailing update of the previous iteration.
  create_streams(/*xfer_lane=*/ft_ || use_dag());
}

void Run::upload() {
  Driver::upload();
  if (ck_ == nullptr) return;
  // A rerun escalation restarts from the resume point, so panels saved
  // by the failed attempt are discarded along with the device state.
  if (ck_->iterations > resume_from_) ck_->iterations = resume_from_;
  if (resume_from_ > 0) {
    // Seed the resume: overwrite the retired block columns with the
    // checkpointed factor slab. Everything right of them is pristine by
    // the left-looking invariant, so this is the complete mid-run state.
    m_.memcpy_h2d(d_a_, 0, ck_->columns.data(),
                  static_cast<std::int64_t>(off(resume_from_)) * n_,
                  s_compute_, /*blocking=*/true);
  }
}

void Run::issue_encode(StreamId s, int i, int k) {
  const DMat blk = data_block(i, k);
  const DMat chk = chk_block(i, k);
  KernelDesc d{"encode", KernelClass::Blas2,
               blas::gemv_flops(blk.rows, blk.cols) * 2, 0};
  m_.launch(s, d, [blk, chk] {
    encode_block(ConstMatrixView<double>(blk.view()), chk.view());
  });
}

void Run::run_once() {
  panel_iter_[0] = panel_iter_[1] = -1;  // panels are stale after a rerun
  if (use_dag()) {
    run_once_dag();
    return;
  }
  // One BLAS-2 encode kernel per lower-triangle block, spread across the
  // recalc streams so encoding itself benefits from concurrency.
  encode();
  if (ft_ && placement_ == UpdatePlacement::Cpu) {
    // Paper §VI-6a: the initial checksums move to the host once.
    const obs::PhaseScope phase(tel_.profile(), obs::Phase::Encode);
    m_.sync_stream(s_compute_);
    m_.memcpy_d2h(m_.numeric() ? h_chk_.data() : nullptr, d_chk_, 0,
                  static_cast<std::int64_t>(2 * nb_) * n_, s_compute_,
                  /*blocking=*/true);
  }
  // Stochastic transfer faults cover the H2D copies between encode and
  // the final download (a corrupted *initial* upload is indistinguishable
  // from a different input — no ABFT can detect it). D2H staging copies
  // are armed individually where an arrival check exists (transfer_guard).
  sim::TransferArmGuard arm(m_, /*h2d=*/true, /*d2h=*/false);
  if (checkpointing_) take_checkpoint(resume_from_);
  // Resuming mid-matrix with CPU-side checksum updating: the first
  // resumed iteration needs its decomposed row panel on the host (a
  // no-op for cold starts and for the other placements).
  fetch_panel_for_cpu_update(resume_from_);
  int rollbacks_left = copt_.max_rollbacks;
  int j = resume_from_;
  while (j < nb_) {
    if (checkpointing_ && rollbacks_left > 0) {
      try {
        iterate(j);
      } catch (const Error&) {
        // Timely detection (Online/Enhanced) guarantees the corruption
        // postdates the snapshot: roll back and resume instead of
        // restarting the whole factorization.
        --rollbacks_left;
        ++result_.rollbacks;
        rollback();
        j = ckpt_iter_;
        continue;
      }
    } else {
      iterate(j);
    }
    ++j;
    if (checkpointing_ && j < nb_ && j % copt_.checkpoint_interval == 0) {
      take_checkpoint(j);
    }
    if (ck_ != nullptr && j < nb_ && j % copt_.checkpoint_interval == 0 &&
        j > ck_->iterations) {
      save_panels(j);
    }
  }
  if (opt_.variant == Variant::Offline) {
    offline_final_verify();
  } else if (ft_ && copt_.transfer_guard) {
    // Transfer-fault hardening: pre-use verification cannot see a
    // strike on a retired output block (nothing reads it again), so
    // the guard closes the output-at-rest window with one end sweep.
    // Unlike the offline sweep, timely in-loop detection guarantees a
    // sweep-detected error never propagated — anything it finds struck
    // after the block's last verification and was never read since —
    // so in-place correction is safe; uncorrectable damage escalates.
    cur_iter_ = -1;
    tel_.begin_iteration(-1);
    std::vector<BlockId> all;
    for (int k = 0; k < nb_; ++k)
      for (int i = k; i < nb_; ++i) all.emplace_back(i, k);
    verify_blocks(all, fault::Op::Gemm);
  }
  m_.sync_all();
}

void Run::take_checkpoint(int next_iter) {
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Recover);
  // The checkpoint window is itself exposed: a storage strike arriving
  // now lands *before* the snapshot, so the snapshot preserves the
  // corruption and rollback alone cannot clear it (data strikes stay
  // correctable — the checksum snapshot is taken from the untouched
  // checksum state — while harder cases escalate up the ladder).
  poll_window_faults(fault::Op::Syrk, next_iter);
  // Snapshot a consistent (matrix, checksum) pair: all checksum-stream
  // work must land first.
  m_.stream_wait_event(s_compute_, m_.record_event(chk_stream()));
  m_.memcpy_d2d(d_ckpt_a_, 0, d_a_, 0, static_cast<std::int64_t>(n_) * n_,
                s_compute_);
  if (ft_) {
    if (placement_ == UpdatePlacement::Cpu) {
      if (m_.numeric()) h_ckpt_chk_ = h_chk_;
      KernelDesc d{"ckpt_chk_host", KernelClass::HostChecksum,
                   static_cast<std::int64_t>(2 * nb_) * n_, 0};
      m_.host_compute(d, {});
    } else {
      m_.memcpy_d2d(d_ckpt_chk_, 0, d_chk_, 0,
                    static_cast<std::int64_t>(2 * nb_) * n_, s_compute_);
    }
  }
  ckpt_iter_ = next_iter;
  tel_.checkpoint_taken(next_iter);
}

void Run::save_panels(int upto) {
  // Fleet panel checkpoint (docs/fleet.md): ship the block columns
  // retired since the last save to the host store. Left-looking
  // Cholesky never rewrites them and they were verified before they
  // retired, so this one D2H copy is the entire checkpoint — no device
  // snapshot, no extra verification — and it survives the device.
  const int c0 = off(ck_->iterations);
  const int cols = off(upto) - c0;
  if (cols <= 0) return;
  // The shipped columns were verified when their iterations retired,
  // but a storage strike landing *after* that verification would be
  // frozen into the checkpoint — and a resume re-encodes checksums
  // from the slab, so the corruption becomes undetectable forever.
  // Surface any pending strikes, then re-verify (correcting in place)
  // everything about to leave the device; uncorrectable damage
  // escalates up the rerun ladder like any other detection.
  if (ft_) {
    poll_window_faults(fault::Op::Syrk, upto);
    std::vector<BlockId> shipped;
    for (int k = ck_->iterations; k < upto; ++k) {
      for (int i = k; i < nb_; ++i) shipped.emplace_back(i, k);
    }
    verify_blocks(shipped, fault::Op::Gemm);
  }
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Recover);
  const double ck_t0 = m_.host_now();
  m_.sync_stream(s_compute_);
  m_.memcpy_d2h(ck_->columns.data() + static_cast<std::int64_t>(c0) * n_,
                d_a_, static_cast<std::int64_t>(c0) * n_,
                static_cast<std::int64_t>(cols) * n_, s_xfer_,
                /*blocking=*/true);
  ck_->iterations = upto;
  const std::int64_t bytes =
      static_cast<std::int64_t>(cols) * n_ * static_cast<int>(sizeof(double));
  result_.checkpoint_bytes += bytes;
  trace_span(obs::derive_span_id(trace_pass_,
                                 obs::kTraceCheckpointChildBase +
                                     static_cast<std::uint64_t>(upto)),
             trace_pass_, "checkpoint", "checkpoint", ck_t0, m_.host_now(),
             "ok",
             "iterations=" + std::to_string(upto) +
                 " bytes=" + std::to_string(bytes));
  tel_.checkpoint_taken(upto);
}

void Run::rollback() {
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Recover);
  m_.sync_all();
  m_.memcpy_d2d(d_a_, 0, d_ckpt_a_, 0, static_cast<std::int64_t>(n_) * n_,
                s_compute_);
  if (ft_) {
    if (placement_ == UpdatePlacement::Cpu) {
      if (m_.numeric()) h_chk_ = h_ckpt_chk_;
      KernelDesc d{"restore_chk_host", KernelClass::HostChecksum,
                   static_cast<std::int64_t>(2 * nb_) * n_, 0};
      m_.host_compute(d, {});
    } else {
      m_.memcpy_d2d(d_chk_, 0, d_ckpt_chk_, 0,
                    static_cast<std::int64_t>(2 * nb_) * n_, s_compute_);
    }
  }
  m_.sync_stream(s_compute_);
  panel_iter_[0] = panel_iter_[1] = -1;  // host panel cache is stale
  tel_.rollback(ckpt_iter_);
  // Recovery is not a safe harbor: storage faults arriving during the
  // restore strike the just-restored state and must be caught by the
  // verifications of the resumed iterations.
  poll_window_faults(fault::Op::Syrk, ckpt_iter_);
}

// ----------------------------------------------------------------------
// Verification
// ----------------------------------------------------------------------

void Run::verify_blocks(const std::vector<BlockId>& blocks, fault::Op attr) {
  verify_batch(blocks, attr);
  if (!ft_ || blocks.empty() || placement_ != UpdatePlacement::Cpu) return;
  // Placement Cpu: stored checksums live on the host; ship the whole
  // recalc batch over in one transfer (paper §VI-6c) and compare there.
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Verify);
  std::int64_t cols = 0;
  for (const auto& [bi, bk] : blocks) cols += bs(bk);
  m_.memcpy_d2h_2d(m_.numeric() ? h_scratch_.data() : nullptr, 2,
                   d_scratch_, 0, 2, 2, static_cast<int>(cols), s_compute_,
                   /*blocking=*/true);
  const Tolerance tol = opt_.tolerance;
  KernelDesc hd{"verify_host", KernelClass::HostChecksum, 4 * cols, 0};
  m_.host_compute(hd, [this, blocks, tol, attr] {
    int col = 0;
    for (const auto& [bi, bk] : blocks) {
      const DMat blk = data_block(bi, bk);
      auto out = verify_block(
          blk.view(), h_chk_block(bi, bk),
          ConstMatrixView<double>(h_scratch_.block(0, col, 2, blk.cols)),
          tol);
      // Repairs computed on the host must cross back over PCIe.
      for (std::size_t c = 0; c < out.corrections.size(); ++c) {
        m_.memcpy_h2d(d_a_, 0, nullptr, 0, s_compute_);
      }
      tel_.block_verified(out, attr, cur_iter_, bi, bk,
                          blas::gemv_flops(blk.rows, blk.cols) * 2, off(bi),
                          blk.rows, off(bk), blk.cols, 2 * bi);
      absorb(out, kUncorrectable);
      col += blk.cols;
    }
  });
}

// One block verification: recalc the block's column sums into the
// scratch area at `pos`, then compare against the stored checksum rows
// and correct in place. Both launches ride the same stream so the
// compare observes the fresh sums. With placement Cpu the stored
// checksums live on the host, so only the recalc runs here and
// verify_blocks compares the landed batch.
void Run::issue_verify(Sums /*sums*/, StreamId s, int bi, int bk,
                       fault::Op attr, std::int64_t pos, int iter) {
  const DMat blk = data_block(bi, bk);
  const DMat scratch{&d_scratch_, pos, kChecksumRows, blk.cols, 2};
  KernelDesc rd{"recalc", KernelClass::Blas2,
                blas::gemv_flops(blk.rows, blk.cols) * 2, 0};
  m_.launch(s, rd, [blk, scratch] {
    encode_block(ConstMatrixView<double>(blk.view()), scratch.view());
  });
  if (placement_ == UpdatePlacement::Cpu) return;
  const DMat chk = chk_block(bi, bk);
  const Tolerance tol = opt_.tolerance;
  KernelDesc cd{"verify", KernelClass::Compare, 4LL * blk.cols, 0};
  const std::int64_t rflops = rd.flops;
  m_.launch(s, cd,
            [this, blk, chk, scratch, tol, attr, bi, bk, rflops, iter] {
              const VerifyOutcome out =
                  verify_block(blk.view(), chk.view(),
                               ConstMatrixView<double>(scratch.view()), tol);
              tel_.block_verified(out, attr, iter, bi, bk, rflops, off(bi),
                                  blk.rows, off(bk), blk.cols, 2 * bi);
              absorb(out, kUncorrectable);
            });
}

// ----------------------------------------------------------------------
// Checksum updating (paper §IV-B, placement per Opt 2)
// ----------------------------------------------------------------------

void Run::fetch_panel_for_cpu_update(int j) {
  if (!ft_ || placement_ != UpdatePlacement::Cpu || j <= 0 || j >= nb_) {
    return;
  }
  // Profiler: the panel staging copy exists only to feed host-side
  // checksum updating, so it is Update overhead.
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Update);
  // The CPU needs iteration j's decomposed row panel A[j, 0:j*B] to
  // update checksums (paper §VI-6b: n^2/2 words total). The panel is
  // final once iteration j-1's TRSM completed, so it is normally
  // prefetched at the end of the previous iteration into the other half
  // of the double buffer; this call is then a cheap idempotent check.
  const int slot = j & 1;
  if (panel_iter_[slot] == j) return;
  m_.stream_wait_event(s_xfer_, m_.record_event(s_compute_));
  m_.memcpy_d2h_2d(m_.numeric() ? h_panel_[slot].data() : nullptr, b_, d_a_,
                   off(j), n_, bs(j), off(j), s_xfer_);
  panel_event_[slot] = m_.record_event(s_xfer_);
  panel_iter_[slot] = j;
}

void Run::wait_panel(int j) {
  const int slot = j & 1;
  FTLA_CHECK(panel_iter_[slot] == j);
  m_.sync_event(panel_event_[slot]);
}

void Run::chk_update_syrk(int j) {
  if (!ft_ || j == 0) return;
  // The GPU path issues neutral gpublas names ("gemm"/"trsm"); the scope
  // is what tags them as checksum-update overhead.
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Update);
  const int jb = bs(j);
  const int w = off(j);  // width of the decomposed panel to the left
  if (placement_ == UpdatePlacement::Cpu) {
    wait_panel(j);
    KernelDesc d{"chk_syrk_cpu", KernelClass::HostChecksum,
                 blas::gemm_flops(kChecksumRows, jb, w), 0};
    m_.host_compute(d, [this, j, jb, w] {
      blas::gemm(Trans::No, Trans::Yes, -1.0,
                 ConstMatrixView<double>(h_chk_strip(j, j + 1, 0, w)),
                 ConstMatrixView<double>(h_panel_[j & 1].block(0, 0, jb, w)),
                 1.0, h_chk_block(j, j));
    });
    return;
  }
  // chk(A') = chk(A) - chk(LC) * LC^T
  sim::gpublas::gemm(m_, chk_stream(), Trans::No, Trans::Yes, -1.0,
                     chk_strip(j, j + 1, 0, w),
                     data_region(off(j), 0, jb, w), 1.0, chk_block(j, j),
                     KernelClass::Blas3Skinny);
}

void Run::chk_update_gemm(int j) {
  if (!ft_ || j == 0 || j + 1 >= nb_) return;
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Update);
  const int jb = bs(j);
  const int w = off(j);
  if (placement_ == UpdatePlacement::Cpu) {
    wait_panel(j);
    KernelDesc d{"chk_gemm_cpu", KernelClass::HostChecksum,
                 blas::gemm_flops(2 * (nb_ - j - 1), jb, w), 0};
    m_.host_compute(d, [this, j, jb, w] {
      blas::gemm(Trans::No, Trans::Yes, -1.0,
                 ConstMatrixView<double>(h_chk_strip(j + 1, nb_, 0, w)),
                 ConstMatrixView<double>(h_panel_[j & 1].block(0, 0, jb, w)),
                 1.0, h_chk_strip(j + 1, nb_, off(j), jb));
    });
    return;
  }
  // chk(B') = chk(B) - chk(LD) * LC^T, one skinny GEMM for the whole
  // block column.
  sim::gpublas::gemm(m_, chk_stream(), Trans::No, Trans::Yes, -1.0,
                     chk_strip(j + 1, nb_, 0, w),
                     data_region(off(j), 0, jb, w), 1.0,
                     chk_strip(j + 1, nb_, off(j), jb),
                     KernelClass::Blas3Skinny);
}

void Run::chk_update_trsm(int j, EventId e_l_ready) {
  if (!ft_ || j + 1 >= nb_) return;
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Update);
  const int jb = bs(j);
  if (placement_ == UpdatePlacement::Cpu) {
    KernelDesc d{"chk_trsm_cpu", KernelClass::HostChecksum,
                 blas::trsm_flops(Side::Right, 2 * (nb_ - j - 1), jb), 0};
    m_.host_compute(d, [this, j, jb] {
      blas::trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
                 ConstMatrixView<double>(h_diag_.block(0, 0, jb, jb)),
                 h_chk_strip(j + 1, nb_, off(j), jb));
    });
    return;
  }
  // chk(LB) = chk(B') * (LA^T)^{-1}; the factor block must be resident.
  m_.stream_wait_event(chk_stream(), e_l_ready);
  sim::gpublas::trsm(m_, chk_stream(), Side::Right, Uplo::Lower, Trans::Yes,
                     Diag::NonUnit, 1.0, data_block(j, j),
                     chk_strip(j + 1, nb_, off(j), jb),
                     KernelClass::Blas3Skinny);
}

// ----------------------------------------------------------------------
// Fault hooks
// ----------------------------------------------------------------------

void Run::poll_window_faults(fault::Op op, int j) {
  if (injector_ == nullptr || !m_.numeric()) return;
  for (const auto& spec : injector_->poll_window(op, j)) strike(spec, j);
}

// Default block targets when a spec leaves them unspecified. Computing
// errors corrupt an *output* block of the operation; storage errors
// corrupt an *input* block it is about to read.
BlockId Run::strike_target(const fault::FaultSpec& spec, int j) const {
  int bi = spec.block_row;
  int bk = spec.block_col;
  const bool output = spec.type == fault::FaultType::Computing;
  if (bk < 0) {
    switch (spec.op) {
      case fault::Op::Syrk:
      case fault::Op::Gemm: bk = output ? j : std::max(0, j - 1); break;
      case fault::Op::Potf2:
      case fault::Op::Trsm: bk = j; break;
    }
  }
  if (bi < 0) {
    switch (spec.op) {
      case fault::Op::Syrk:
      case fault::Op::Potf2: bi = j; break;
      case fault::Op::Gemm:
      case fault::Op::Trsm: bi = std::min(j + 1, nb_ - 1); break;
    }
  }
  return {bi, bk};
}

double* Run::checksum_cell(const fault::FaultSpec& spec, int bi, int bk,
                           int* row, int* col) {
  if (!ft_) return nullptr;
  const int r = spec.elem_row & 1;
  *row = 2 * bi + r;
  *col = off(bk) + std::min(spec.elem_col, bs(bk) - 1);
  return placement_ == UpdatePlacement::Cpu
             ? &h_chk_(*row, *col)
             : d_chk_.data() + static_cast<std::int64_t>(*col) * (2 * nb_) +
                   *row;
}

// ----------------------------------------------------------------------
// The host diagonal section, shared by the bulk and DAG iterations
// ----------------------------------------------------------------------

void Run::stage_diag(StreamId s, int j) {
  const int jb = bs(j);
  // The D2H staging copies are fault-armed only when the arrival check
  // exists to catch them (otherwise a mid-copy strike would be factored
  // into L and laundered into consistent checksums).
  sim::TransferArmGuard diag_arm(m_, m_.h2d_faults_armed(),
                                 ft_ && copt_.transfer_guard);
  m_.memcpy_d2h_2d(m_.numeric() ? h_diag_.data() : nullptr, b_, d_a_,
                   static_cast<std::int64_t>(off(j)) * n_ + off(j), n_, jb,
                   jb, s);
  if (ft_ && placement_ != UpdatePlacement::Cpu) {
    // Checksum rows ride along only because FT is on: Update overhead.
    const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
    m_.memcpy_d2h_2d(m_.numeric() ? h_diag_chk_.data() : nullptr,
                     kChecksumRows, d_chk_,
                     static_cast<std::int64_t>(off(j)) * (2 * nb_) + 2 * j,
                     2 * nb_, kChecksumRows, jb, s);
  }
}

void Run::host_potf2(int j) {
  const int jb = bs(j);
  KernelDesc d{"potf2", KernelClass::HostPotf2, blas::potf2_flops(jb), 0};
  m_.host_compute(d, [this, jb] {
    auto blk = h_diag_.block(0, 0, jb, jb);
    blas::potf2(blk);
    // Zero the strict upper triangle so the stored block is exactly L
    // and column checksums cover well-defined contents.
    for (int c = 1; c < jb; ++c)
      for (int r = 0; r < c; ++r) blk(r, c) = 0.0;
  });
}

void Run::host_chk_potf2(int j) {
  const int jb = bs(j);
  KernelDesc d{"chk_potf2", KernelClass::HostChecksum,
               2LL * kChecksumRows * jb * jb, 0};
  m_.host_compute(d, [this, j, jb] {
    potf2_update_checksum(
        ConstMatrixView<double>(h_diag_.block(0, 0, jb, jb)), h_diag_chk(j));
  });
}

// Host-side check of the staged diagonal block against its staged
// checksum rows: the transfer guard's arrival check before POTF2
// (`arrival`), or Online's post-POTF2 check. Callers count it.
void Run::host_verify_diag(int j, bool arrival) {
  const int jb = bs(j);
  const Tolerance tol = opt_.tolerance;
  KernelDesc vd{arrival ? "verify_arrival" : "verify_potf2",
                KernelClass::HostChecksum, blas::gemv_flops(jb, jb) * 2, 0};
  m_.host_compute(vd, [this, j, jb, arrival, tol] {
    const VerifyOutcome out =
        verify_block_host(h_diag_.block(0, 0, jb, jb), h_diag_chk(j), tol);
    if (arrival && std::getenv("FTLA_CAMPAIGN_DEBUG") != nullptr) {
      std::fprintf(stderr,
                   "arrival-verify j=%d det=%lld corr=%lld rep=%lld "
                   "unc=%d\n",
                   j, static_cast<long long>(out.errors_detected),
                   static_cast<long long>(out.errors_corrected),
                   static_cast<long long>(out.checksum_repairs),
                   out.uncorrectable ? 1 : 0);
    }
    tel_.block_verified(out, fault::Op::Potf2, j, j, j,
                        blas::gemv_flops(jb, jb) * 2, off(j), jb, off(j), jb,
                        2 * j);
    absorb(out, kUncorrectable);
  });
}

void Run::return_factor(StreamId s, int j) {
  const int jb = bs(j);
  m_.memcpy_h2d_2d(d_a_, static_cast<std::int64_t>(off(j)) * n_ + off(j), n_,
                   m_.numeric() ? h_diag_.data() : nullptr, b_, jb, jb, s);
  if (ft_ && placement_ != UpdatePlacement::Cpu) {
    const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
    m_.memcpy_h2d_2d(d_chk_,
                     static_cast<std::int64_t>(off(j)) * (2 * nb_) + 2 * j,
                     2 * nb_, m_.numeric() ? h_diag_chk_.data() : nullptr,
                     kChecksumRows, kChecksumRows, jb, s);
  }
}

// ----------------------------------------------------------------------
// One outer iteration of Algorithm 1
// ----------------------------------------------------------------------

void Run::iterate(int j) {
  cur_iter_ = j;
  tel_.begin_iteration(j);
  const int jb = bs(j);
  const int w = off(j);          // decomposed width to the left
  const int below = n_ - off(j) - jb;  // rows below the diagonal block
  const bool enhanced = opt_.variant == Variant::EnhancedOnline;
  const bool online = opt_.variant == Variant::Online;
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;

  fetch_panel_for_cpu_update(j);

  // ---------------- SYRK: A[j,j] -= LC LC^T --------------------------
  hook_storage(fault::Op::Syrk, j);
  if (enhanced) {
    // Inputs of SYRK are always verified (Opt 3 never gates them):
    // an error entering the diagonal block cannot be repaired later.
    std::vector<BlockId> in;
    in.emplace_back(j, j);
    for (int k = 0; k < j; ++k) in.emplace_back(j, k);
    verify_blocks(in, fault::Op::Syrk);
  }
  if (j > 0) {
    // MAGMA calls dsyrk here; we price it as SYRK but update the full
    // square block so the block stays exactly A - LC LC^T and its
    // column checksums remain meaningful for every column.
    const DMat diag = data_block(j, j);
    const DConstMat lc = data_region(off(j), 0, jb, w);
    KernelDesc d{"syrk", KernelClass::Blas3, blas::syrk_flops(jb, w), 0};
    m_.launch(s_compute_, d, [diag, lc] {
      blas::gemm(Trans::No, Trans::Yes, -1.0, lc.view(), lc.view(), 1.0,
                 diag.view());
    });
  }
  hook_computing(fault::Op::Syrk, j);
  chk_update_syrk(j);

  if (online && j > 0) {
    verify_blocks({{j, j}}, fault::Op::Syrk);
  }
  if (enhanced) {
    // Pre-read verification for POTF2: the diagonal block as SYRK left
    // it, immediately before it crosses to the host.
    verify_blocks({{j, j}}, fault::Op::Potf2);
  }

  // ---------------- diagonal block to the host -----------------------
  hook_storage(fault::Op::Potf2, j);
  stage_diag(s_compute_, j);
  const EventId e_diag = m_.record_event(s_compute_);

  // ---------------- GEMM: panel update (async, hides POTF2) ----------
  if (below > 0 && j > 0) {
    hook_storage(fault::Op::Gemm, j);
    if (enhanced && verify_this_iter) {
      std::vector<BlockId> in;
      for (int i = j + 1; i < nb_; ++i) in.emplace_back(i, j);  // B
      for (int k = 0; k < j; ++k) in.emplace_back(j, k);        // C
      for (int i = j + 1; i < nb_; ++i)
        for (int k = 0; k < j; ++k) in.emplace_back(i, k);      // D
      verify_blocks(in, fault::Op::Gemm);
    } else if (enhanced) {
      // Opt 3: GEMM input verification skipped this iteration.
      const std::size_t skipped = static_cast<std::size_t>(nb_ - j - 1) +
                                  static_cast<std::size_t>(j) +
                                  static_cast<std::size_t>(nb_ - j - 1) *
                                      static_cast<std::size_t>(j);
      tel_.verify_skipped(fault::Op::Gemm, skipped, j);
    }
    sim::gpublas::gemm(m_, s_compute_, Trans::No, Trans::Yes, -1.0,
                       data_region(off(j) + jb, 0, below, w),
                       data_region(off(j), 0, jb, w), 1.0,
                       data_region(off(j) + jb, off(j), below, jb));
    hook_computing(fault::Op::Gemm, j);
    chk_update_gemm(j);
    if (online) {
      std::vector<BlockId> outs;
      for (int i = j + 1; i < nb_; ++i) outs.emplace_back(i, j);
      verify_blocks(outs, fault::Op::Gemm);
    }
  }

  // ---------------- POTF2 on the host (overlapped with GEMM) ---------
  m_.sync_event(e_diag);
  if (ft_ && copt_.transfer_guard) {
    // Arrival verification: the diagonal block (and, for device-resident
    // checksums, its checksum rows) just crossed PCIe. A mid-copy strike
    // is invisible to every device-side verification — POTF2 would
    // factor the corrupted block and derive *consistent* checksums from
    // it, i.e. silent corruption. Check the landed data before use; the
    // device copy is overwritten by the factor's return trip either way.
    count_verified(fault::Op::Potf2, 1);
    host_verify_diag(j, /*arrival=*/true);
  }
  host_potf2(j);
  if (ft_) {
    host_chk_potf2(j);
    if (online) {
      count_verified(fault::Op::Potf2, 1);
      host_verify_diag(j, /*arrival=*/false);
    }
  }
  // ---------------- factor block (and checksums) back to the GPU ------
  return_factor(s_compute_, j);
  // A computing error in POTF2 corrupts the factor block the GPU now
  // holds (after the transfer, or the copy would mask it).
  hook_computing(fault::Op::Potf2, j);
  const EventId e_l = m_.record_event(s_compute_);

  // ---------------- TRSM: panel solve ---------------------------------
  if (below > 0) {
    hook_storage(fault::Op::Trsm, j);
    if (enhanced) {
      // The factor block is always verified before use (its only
      // consumer is this TRSM); the panel obeys the K interval.
      std::vector<BlockId> in;
      in.emplace_back(j, j);
      if (verify_this_iter) {
        for (int i = j + 1; i < nb_; ++i) in.emplace_back(i, j);
      } else {
        tel_.verify_skipped(fault::Op::Trsm,
                            static_cast<std::size_t>(nb_ - j - 1), j);
      }
      verify_blocks(in, fault::Op::Trsm);
    }
    sim::gpublas::trsm(m_, s_compute_, Side::Right, Uplo::Lower, Trans::Yes,
                       Diag::NonUnit, 1.0, data_block(j, j),
                       data_region(off(j) + jb, off(j), below, jb));
    hook_computing(fault::Op::Trsm, j);
    chk_update_trsm(j, e_l);
    if (online) {
      std::vector<BlockId> outs;
      for (int i = j + 1; i < nb_; ++i) outs.emplace_back(i, j);
      verify_blocks(outs, fault::Op::Trsm);
    }
  } else if (ft_ && copt_.transfer_guard) {
    // Last block column: no TRSM re-reads the factor block, so its
    // return H2D copy is the one transfer nothing downstream would
    // verify. One device-side check closes the window.
    verify_blocks({{j, j}}, fault::Op::Trsm);
  }

  // Row panel j+1 is final now; start moving it to the host so the next
  // iteration's CPU checksum updates never wait on PCIe.
  fetch_panel_for_cpu_update(j + 1);
}

void Run::offline_final_verify() {
  cur_iter_ = -1;  // telemetry: the sweep belongs to no outer iteration
  tel_.begin_iteration(-1);
  // Huang & Abraham: one verification sweep over the finished factor.
  // Any anomaly triggers a full re-run — an offline scheme cannot tell
  // whether a detected error propagated before the sweep, so correcting
  // in place would risk silently keeping polluted blocks.
  const int detected_before = result_.errors_detected;
  const int repairs_before = result_.checksum_repairs;
  std::vector<BlockId> all;
  for (int k = 0; k < nb_; ++k)
    for (int i = k; i < nb_; ++i) all.emplace_back(i, k);
  verify_blocks(all, fault::Op::Gemm);
  m_.sync_all();
  if (result_.errors_detected != detected_before ||
      result_.checksum_repairs != repairs_before) {
    throw UnrecoverableCorruptionError(
        "offline sweep found corruption in the finished factor");
  }
}

// ----------------------------------------------------------------------
// Task-graph (DAG) runtime path (docs/runtime.md): the same iteration
// in bulk issue order, as dependency-inferred tasks (driver.cpp has the
// construction rules). Iteration j's trailing update overlaps iteration
// j+1's panel work and verify tasks hide in compute/transfer slack.
// ----------------------------------------------------------------------

void Run::dag_iteration(runtime::TaskGraph& g, int j) {
  const int jb = bs(j);
  const int w = off(j);                // decomposed width to the left
  const int below = n_ - off(j) - jb;  // rows below the diagonal block
  const bool enhanced = opt_.variant == Variant::EnhancedOnline;
  const bool online = opt_.variant == Variant::Online;
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;

  runtime::TaskOptions base;
  base.phase = obs::Phase::Base;
  base.iteration = j;
  runtime::TaskOptions update = base;
  update.phase = obs::Phase::Update;
  runtime::TaskOptions host = base;
  host.phase = obs::Phase::Base;
  host.where = runtime::Where::Host;

  // ---------------- SYRK: A[j,j] -= LC LC^T --------------------------
  dag_hook(g, "hook_storage_syrk", j,
           [this, j] { hook_storage(fault::Op::Syrk, j); });
  if (enhanced) {
    // SYRK inputs are always verified (Opt 3 never gates them). Column
    // j was untouched since encode, so these verify tasks depend only
    // on the encode tasks and park arbitrarily early.
    dag_verify(g, j, j, fault::Op::Syrk, j);
    for (int k = 0; k < j; ++k) dag_verify(g, j, k, fault::Op::Syrk, j);
  }
  if (j > 0) {
    std::vector<runtime::Footprint> fp;
    for (int k = 0; k < j; ++k) fp.push_back(runtime::read(dtile(j, k)));
    fp.push_back(runtime::rw(dtile(j, j)));
    g.add_task("syrk", std::move(fp),
               [this, j, jb, w](const runtime::TaskContext& c) {
                 for (int k = 0; k < j; ++k) c.tiles.read(dtile(j, k));
                 c.tiles.rw(dtile(j, j));
                 const DMat diag = data_block(j, j);
                 const DConstMat lc = data_region(off(j), 0, jb, w);
                 KernelDesc d{"syrk", KernelClass::Blas3,
                              blas::syrk_flops(jb, w), 0};
                 m_.launch(c.stream, d, [diag, lc] {
                   blas::gemm(Trans::No, Trans::Yes, -1.0, lc.view(),
                              lc.view(), 1.0, diag.view());
                 });
               },
               base);
  }
  dag_hook(g, "hook_computing_syrk", j,
           [this, j] { hook_computing(fault::Op::Syrk, j); });
  if (ft_ && j > 0) {
    std::vector<runtime::Footprint> fp;
    for (int k = 0; k < j; ++k) {
      fp.push_back(runtime::read(ctile(j, k)));
      fp.push_back(runtime::read(dtile(j, k)));
    }
    fp.push_back(runtime::rw(ctile(j, j)));
    g.add_task("chk_syrk", std::move(fp),
               [this, j, jb, w](const runtime::TaskContext& c) {
                 for (int k = 0; k < j; ++k) {
                   c.tiles.read(ctile(j, k));
                   c.tiles.read(dtile(j, k));
                 }
                 c.tiles.rw(ctile(j, j));
                 sim::gpublas::gemm(m_, c.stream, Trans::No, Trans::Yes,
                                    -1.0, chk_strip(j, j + 1, 0, w),
                                    data_region(off(j), 0, jb, w), 1.0,
                                    chk_block(j, j),
                                    KernelClass::Blas3Skinny);
               },
               update);
  }
  if (online && j > 0) dag_verify(g, j, j, fault::Op::Syrk, j);
  if (enhanced) dag_verify(g, j, j, fault::Op::Potf2, j);

  // ---------------- diagonal block to the host -----------------------
  dag_hook(g, "hook_storage_potf2", j,
           [this, j] { hook_storage(fault::Op::Potf2, j); });
  {
    std::vector<runtime::Footprint> fp{runtime::read(dtile(j, j)),
                                       runtime::write(htile())};
    if (ft_) fp.push_back(runtime::read(ctile(j, j)));
    g.add_task(
        "d2h_diag", std::move(fp),
        [this, j](const runtime::TaskContext& c) {
          c.tiles.read(dtile(j, j));
          c.tiles.write(htile());
          if (ft_) c.tiles.read(ctile(j, j));
          stage_diag(c.stream, j);
        },
        base);
  }

  // ---------------- GEMM: panel update -------------------------------
  // Built before the host tasks, as in bulk: it has no dependency on
  // POTF2 (disjoint footprints), so it runs under the host section and
  // — unlike bulk, which serializes on the compute stream — also
  // alongside the *next* iteration's SYRK.
  if (below > 0 && j > 0) {
    dag_hook(g, "hook_storage_gemm", j,
             [this, j] { hook_storage(fault::Op::Gemm, j); });
    if (enhanced && verify_this_iter) {
      for (int i = j + 1; i < nb_; ++i)
        dag_verify(g, i, j, fault::Op::Gemm, j);                       // B
      for (int k = 0; k < j; ++k) dag_verify(g, j, k, fault::Op::Gemm, j);
      for (int i = j + 1; i < nb_; ++i)
        for (int k = 0; k < j; ++k)
          dag_verify(g, i, k, fault::Op::Gemm, j);                     // D
    } else if (enhanced) {
      const std::size_t skipped = static_cast<std::size_t>(nb_ - j - 1) +
                                  static_cast<std::size_t>(j) +
                                  static_cast<std::size_t>(nb_ - j - 1) *
                                      static_cast<std::size_t>(j);
      tel_.verify_skipped(fault::Op::Gemm, skipped, j);
    }
    {
      std::vector<runtime::Footprint> fp;
      for (int i = j + 1; i < nb_; ++i)
        for (int k = 0; k < j; ++k) fp.push_back(runtime::read(dtile(i, k)));
      for (int k = 0; k < j; ++k) fp.push_back(runtime::read(dtile(j, k)));
      for (int i = j + 1; i < nb_; ++i)
        fp.push_back(runtime::rw(dtile(i, j)));
      g.add_task("gemm", std::move(fp),
                 [this, j, jb, w, below](const runtime::TaskContext& c) {
                   for (int i = j + 1; i < nb_; ++i)
                     for (int k = 0; k < j; ++k) c.tiles.read(dtile(i, k));
                   for (int k = 0; k < j; ++k) c.tiles.read(dtile(j, k));
                   for (int i = j + 1; i < nb_; ++i) c.tiles.rw(dtile(i, j));
                   sim::gpublas::gemm(m_, c.stream, Trans::No, Trans::Yes,
                                      -1.0,
                                      data_region(off(j) + jb, 0, below, w),
                                      data_region(off(j), 0, jb, w), 1.0,
                                      data_region(off(j) + jb, off(j), below,
                                                  jb));
                 },
                 base);
    }
    dag_hook(g, "hook_computing_gemm", j,
             [this, j] { hook_computing(fault::Op::Gemm, j); });
    if (ft_ && j + 1 < nb_) {
      std::vector<runtime::Footprint> fp;
      for (int i = j + 1; i < nb_; ++i)
        for (int k = 0; k < j; ++k) fp.push_back(runtime::read(ctile(i, k)));
      for (int k = 0; k < j; ++k) fp.push_back(runtime::read(dtile(j, k)));
      for (int i = j + 1; i < nb_; ++i)
        fp.push_back(runtime::rw(ctile(i, j)));
      g.add_task("chk_gemm", std::move(fp),
                 [this, j, jb, w](const runtime::TaskContext& c) {
                   for (int i = j + 1; i < nb_; ++i)
                     for (int k = 0; k < j; ++k) c.tiles.read(ctile(i, k));
                   for (int k = 0; k < j; ++k) c.tiles.read(dtile(j, k));
                   for (int i = j + 1; i < nb_; ++i) c.tiles.rw(ctile(i, j));
                   sim::gpublas::gemm(m_, c.stream, Trans::No, Trans::Yes,
                                      -1.0, chk_strip(j + 1, nb_, 0, w),
                                      data_region(off(j), 0, jb, w), 1.0,
                                      chk_strip(j + 1, nb_, off(j), jb),
                                      KernelClass::Blas3Skinny);
                 },
                 update);
    }
    if (online) {
      for (int i = j + 1; i < nb_; ++i)
        dag_verify(g, i, j, fault::Op::Gemm, j);
    }
  }

  // ---------------- POTF2 on the host --------------------------------
  if (ft_ && copt_.transfer_guard) {
    count_verified(fault::Op::Potf2, 1);
    g.add_task("verify_arrival", {runtime::rw(htile())},
               [this, j](const runtime::TaskContext& c) {
                 c.tiles.rw(htile());
                 host_verify_diag(j, /*arrival=*/true);
               },
               host);
  }
  g.add_task("potf2", {runtime::rw(htile())},
             [this, j](const runtime::TaskContext& c) {
               c.tiles.rw(htile());
               host_potf2(j);
             },
             host);
  if (ft_) {
    g.add_task("chk_potf2", {runtime::rw(htile())},
               [this, j](const runtime::TaskContext& c) {
                 c.tiles.rw(htile());
                 host_chk_potf2(j);
               },
               host);
    if (online) {
      count_verified(fault::Op::Potf2, 1);
      g.add_task("verify_potf2", {runtime::rw(htile())},
                 [this, j](const runtime::TaskContext& c) {
                   c.tiles.rw(htile());
                   host_verify_diag(j, /*arrival=*/false);
                 },
                 host);
    }
  }

  // ---------------- factor (and checksums) back to the GPU ------------
  {
    std::vector<runtime::Footprint> fp{runtime::read(htile()),
                                       runtime::write(dtile(j, j))};
    if (ft_) fp.push_back(runtime::write(ctile(j, j)));
    g.add_task(
        "h2d_factor", std::move(fp),
        [this, j](const runtime::TaskContext& c) {
          c.tiles.read(htile());
          c.tiles.write(dtile(j, j));
          if (ft_) c.tiles.write(ctile(j, j));
          return_factor(c.stream, j);
        },
        base);
  }
  dag_hook(g, "hook_computing_potf2", j,
           [this, j] { hook_computing(fault::Op::Potf2, j); });

  // ---------------- TRSM: panel solve ---------------------------------
  if (below > 0) {
    dag_hook(g, "hook_storage_trsm", j,
             [this, j] { hook_storage(fault::Op::Trsm, j); });
    if (enhanced) {
      // The factor block is always verified before use; the panel obeys
      // the K interval.
      dag_verify(g, j, j, fault::Op::Trsm, j);
      if (verify_this_iter) {
        for (int i = j + 1; i < nb_; ++i)
          dag_verify(g, i, j, fault::Op::Trsm, j);
      } else {
        tel_.verify_skipped(fault::Op::Trsm,
                            static_cast<std::size_t>(nb_ - j - 1), j);
      }
    }
    {
      std::vector<runtime::Footprint> fp{runtime::read(dtile(j, j))};
      for (int i = j + 1; i < nb_; ++i)
        fp.push_back(runtime::rw(dtile(i, j)));
      g.add_task("trsm", std::move(fp),
                 [this, j, jb, below](const runtime::TaskContext& c) {
                   c.tiles.read(dtile(j, j));
                   for (int i = j + 1; i < nb_; ++i) c.tiles.rw(dtile(i, j));
                   sim::gpublas::trsm(m_, c.stream, Side::Right, Uplo::Lower,
                                      Trans::Yes, Diag::NonUnit, 1.0,
                                      data_block(j, j),
                                      data_region(off(j) + jb, off(j), below,
                                                  jb));
                 },
                 base);
    }
    dag_hook(g, "hook_computing_trsm", j,
             [this, j] { hook_computing(fault::Op::Trsm, j); });
    if (ft_ && j + 1 < nb_) {
      std::vector<runtime::Footprint> fp{runtime::read(dtile(j, j))};
      for (int i = j + 1; i < nb_; ++i)
        fp.push_back(runtime::rw(ctile(i, j)));
      g.add_task("chk_trsm", std::move(fp),
                 [this, j, jb](const runtime::TaskContext& c) {
                   c.tiles.read(dtile(j, j));
                   for (int i = j + 1; i < nb_; ++i) c.tiles.rw(ctile(i, j));
                   sim::gpublas::trsm(m_, c.stream, Side::Right, Uplo::Lower,
                                      Trans::Yes, Diag::NonUnit, 1.0,
                                      data_block(j, j),
                                      chk_strip(j + 1, nb_, off(j), jb),
                                      KernelClass::Blas3Skinny);
                 },
                 update);
    }
    if (online) {
      for (int i = j + 1; i < nb_; ++i)
        dag_verify(g, i, j, fault::Op::Trsm, j);
    }
  } else if (ft_ && copt_.transfer_guard) {
    // Last block column: no TRSM re-reads the factor block; one
    // device-side check closes the H2D return window (same as bulk).
    dag_verify(g, j, j, fault::Op::Trsm, j);
  }
}

void Run::dag_sweep(runtime::TaskGraph& g) {
  if (!copt_.transfer_guard || opt_.variant == Variant::Offline) return;
  // Output-at-rest end sweep (see the bulk path for the rationale).
  // Each block's verify depends only on that block's last writer, so
  // retired columns are swept while the factorization tail still runs.
  for (int k = 0; k < nb_; ++k)
    for (int i = k; i < nb_; ++i)
      dag_verify(g, i, k, fault::Op::Gemm, -1);
}

void Run::after_graph() {
  if (opt_.variant != Variant::Offline) return;
  // The offline sweep reuses the bulk batch machinery; align the host
  // clock with all graph work first so its fences see the full run.
  m_.sync_all();
  offline_final_verify();
}

}  // namespace

CholeskyResult cholesky(Machine& machine, Matrix<double>* a, int n,
                        const CholeskyOptions& options,
                        fault::Injector* injector) {
  Run run(machine, a, n, options, injector);
  return run.execute();
}

CholeskyResult cholesky_solve(Machine& machine, Matrix<double>* a,
                              MatrixView<double> b,
                              const CholeskyOptions& options,
                              fault::Injector* injector) {
  FTLA_CHECK_MSG(machine.numeric(), "cholesky_solve needs Numeric mode");
  FTLA_CHECK(a != nullptr && a->rows() == b.rows());
  CholeskyResult res = cholesky(machine, a, a->rows(), options, injector);
  if (res.success) {
    blas::potrs(ConstMatrixView<double>(a->view()), b);
  }
  return res;
}

}  // namespace ftla::abft
