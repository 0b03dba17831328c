#include "abft/qr.hpp"

#include <algorithm>
#include <vector>

#include "abft/driver.hpp"
#include "blas/qr.hpp"
#include "blas/types.hpp"
#include "common/error.hpp"
#include "sim/device_matrix.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

using sim::DeviceBuffer;
using sim::DMat;
using sim::EventId;
using sim::KernelClass;
using sim::KernelDesc;
using sim::Machine;
using sim::StreamId;

namespace {

using detail::BlockId;
using detail::Sums;

constexpr const char* kUncorrectable = "more than one error per block row";

class QrRun final : public detail::Driver {
 public:
  QrRun(Machine& m, Matrix<double>* a, std::vector<double>* tau, int n,
        const QrOptions& opt, fault::Injector* injector)
      : Driver(m, a, n, opt, injector, Ladder::AnyError, "qr",
               // Householder QR (Q not formed): 4n^3/3 flops.
               4.0 * n * static_cast<double>(n) * n / 3.0),
        tau_(tau) {
    FTLA_CHECK_MSG(opt_.variant == Variant::NoFt ||
                       opt_.variant == Variant::EnhancedOnline,
                   "the QR extension implements NoFt and EnhancedOnline");
    if (m_.numeric()) {
      FTLA_CHECK(tau_ != nullptr);
      tau_->assign(static_cast<std::size_t>(n_), 0.0);
    }
  }

 private:
  [[nodiscard]] DMat rchk_block(int i, int k) {
    return DMat{&d_rchk_, static_cast<std::int64_t>(2 * k) * n_ + off(i),
                bs(i), kChecksumRows, n_};
  }
  [[nodiscard]] DMat rchk_strip(int row, int rows, int k0, int k1) {
    return DMat{&d_rchk_, static_cast<std::int64_t>(2 * k0) * n_ + row, rows,
                2 * (k1 - k0), n_};
  }

  void allocate() override;
  void download() override;
  void iterate(int j) override;
  void final_sweep() override;
  void dag_iteration(runtime::TaskGraph& g, int j) override;
  void dag_sweep(runtime::TaskGraph& g) override;

  [[nodiscard]] std::vector<runtime::TileKey> chk_tiles(
      int i, int k) const override {
    return {rctile(i, k)};
  }
  void issue_encode(StreamId s, int i, int k) override;
  /// Recalc + compare launches for one block against its row checksums
  /// (the only flavor QR maintains).
  void issue_verify(Sums sums, StreamId s, int bi, int bk, fault::Op attr,
                    std::int64_t pos, int iter) override;
  [[nodiscard]] const char* verify_task_name(Sums /*sums*/) const override {
    return "verify_r";
  }
  /// Defaults: the panel (Potf2) or the V/T staging window (Trsm) of
  /// block column j, else the trailing block column; rows below j.
  [[nodiscard]] BlockId strike_target(const fault::FaultSpec& spec,
                                      int j) const override {
    const int next = std::min(j + 1, nb_ - 1);
    const bool panel =
        spec.op == fault::Op::Potf2 || spec.op == fault::Op::Trsm;
    return {spec.block_row >= 0 ? spec.block_row : next,
            spec.block_col >= 0 ? spec.block_col : (panel ? j : next)};
  }

  /// Tile namespaces beyond the shared ones: row checksums and the
  /// device T factor.
  enum QrTile : int { kTileRchk = kTileDriver, kTileT };
  [[nodiscard]] static runtime::TileKey rctile(int i, int k) {
    return {kTileRchk, i, k};
  }
  [[nodiscard]] static runtime::TileKey ttile() { return {kTileT, 0, 0}; }

  std::vector<double>* tau_;

  DeviceBuffer d_rchk_;  // row checksums, n x 2nb
  DeviceBuffer d_t_;     // the block reflector factor T (b x b)

  Matrix<double> h_panel_;      // host panel (n x b)
  Matrix<double> h_t_;          // host T (b x b)
  Matrix<double> h_panel_chk_;  // re-encoded panel row checksums (n x 2)
  std::vector<double> h_tau_;
};

void QrRun::allocate() {
  d_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
  d_t_ = m_.alloc(static_cast<std::int64_t>(b_) * b_);
  if (ft_) {
    d_rchk_ = m_.alloc(static_cast<std::int64_t>(n_) * 2 * nb_);
    scratch_capacity_ =
        2LL * (static_cast<std::int64_t>(nb_) * nb_ + 2 * nb_) * b_;
    d_scratch_ = m_.alloc(scratch_capacity_);
    h_panel_chk_ = Matrix<double>(n_, kChecksumRows);
  }
  h_panel_ = Matrix<double>(n_, b_);
  h_t_ = Matrix<double>(b_, b_);
  h_tau_.assign(static_cast<std::size_t>(n_), 0.0);
  create_streams(/*xfer_lane=*/false);
}

void QrRun::download() {
  Driver::download();
  if (m_.numeric()) *tau_ = h_tau_;
}

void QrRun::issue_encode(StreamId s, int i, int k) {
  const DMat blk = data_block(i, k);
  const DMat chk = rchk_block(i, k);
  KernelDesc d{"encode_r", KernelClass::Blas2,
               blas::gemv_flops(blk.rows, blk.cols) * 2, 0};
  m_.launch(s, d, [blk, chk] {
    encode_block_rows(ConstMatrixView<double>(blk.view()), chk.view());
  });
}

void QrRun::issue_verify(Sums /*sums*/, StreamId s, int bi, int bk,
                         fault::Op attr, std::int64_t pos, int iter) {
  const DMat blk = data_block(bi, bk);
  const DMat scratch{&d_scratch_, pos, blk.rows, kChecksumRows, blk.rows};
  KernelDesc rd{"recalc_r", KernelClass::Blas2,
                blas::gemv_flops(blk.rows, blk.cols) * 2, 0};
  m_.launch(s, rd, [blk, scratch] {
    encode_block_rows(ConstMatrixView<double>(blk.view()), scratch.view());
  });
  const DMat chk = rchk_block(bi, bk);
  const Tolerance tol = opt_.tolerance;
  KernelDesc cd{"verify_r", KernelClass::Compare, 4LL * blk.rows, 0};
  const std::int64_t rflops = rd.flops;
  m_.launch(s, cd, [this, blk, chk, tol, scratch, attr, bi, bk, rflops,
                    iter] {
    const VerifyOutcome out =
        verify_block_rows(blk.view(), chk.view(),
                          ConstMatrixView<double>(scratch.view()), tol);
    tel_.block_verified(out, attr, iter, bi, bk, rflops, off(bi), blk.rows,
                        off(bk), blk.cols);
    absorb(out, kUncorrectable);
  });
}

void QrRun::iterate(int j) {
  cur_iter_ = j;
  tel_.begin_iteration(j);
  const int jb = bs(j);
  const int mrem = n_ - off(j);
  const int right = n_ - off(j) - jb;
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;

  // ---------------- panel: fetch, factor + T on host, re-encode ------
  hook_storage(fault::Op::Potf2, j);
  if (ft_) {
    std::vector<BlockId> in;
    for (int i = j; i < nb_; ++i) in.emplace_back(i, j);
    verify_batch(in, fault::Op::Potf2, Sums::Rows);
  }
  m_.memcpy_d2h_2d(m_.numeric() ? h_panel_.data() : nullptr, n_, d_a_,
                   static_cast<std::int64_t>(off(j)) * n_ + off(j), n_, mrem,
                   jb, s_compute_, /*blocking=*/true);
  {
    // geqf2 ~ 2 m b^2 flops, larft ~ m b^2.
    KernelDesc d{"geqf2+larft", KernelClass::HostPotf2,
                 3LL * mrem * jb * jb, 0};
    m_.host_compute(d, [this, j, mrem, jb] {
      auto panel = h_panel_.block(0, 0, mrem, jb);
      blas::geqf2(panel, h_tau_.data() + off(j));
      blas::larft(ConstMatrixView<double>(panel), h_tau_.data() + off(j),
                  h_t_.block(0, 0, jb, jb));
    });
  }
  if (ft_) {
    KernelDesc d{"encode_panel_r", KernelClass::HostChecksum,
                 4LL * mrem * jb, 0};
    m_.host_compute(d, [this, j, jb] {
      for (int i = j; i < nb_; ++i) {
        encode_block_rows(
            ConstMatrixView<double>(
                h_panel_.block(off(i) - off(j), 0, bs(i), jb)),
            h_panel_chk_.block(off(i), 0, bs(i), kChecksumRows));
      }
    });
  }
  // The armed stochastic transfer faults strike the factored panel and
  // row-checksum copies: V is always verified before LARFB consumes it
  // and checksum strikes surface as repairs, so nothing lands silently.
  m_.memcpy_h2d_2d(d_a_, static_cast<std::int64_t>(off(j)) * n_ + off(j), n_,
                   m_.numeric() ? h_panel_.data() : nullptr, n_, mrem, jb,
                   s_compute_);
  {
    // T is unprotected by checksums (see the class comment's exposure
    // note): keep its copy out of the stochastic fault surface.
    sim::TransferArmGuard t_arm(m_, /*h2d=*/false, /*d2h=*/false);
    m_.memcpy_h2d(d_t_, 0, m_.numeric() ? h_t_.data() : nullptr,
                  static_cast<std::int64_t>(jb) * jb, s_compute_);
  }
  if (ft_) {
    // The re-encoded panel row checksums ride back only because FT is on.
    const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
    m_.memcpy_h2d_2d(d_rchk_, static_cast<std::int64_t>(2 * j) * n_ + off(j),
                     n_, m_.numeric() ? &h_panel_chk_(off(j), 0) : nullptr,
                     h_panel_chk_.ld(), mrem, kChecksumRows, s_compute_);
  }
  hook_computing(fault::Op::Potf2, j);
  const EventId e_panel = m_.record_event(s_compute_);

  if (right <= 0) return;

  // ---------------- trailing update: C := (I - V T V^T)^T C ----------
  hook_storage(fault::Op::Trsm, j);  // faults on the V/T staging window
  hook_storage(fault::Op::Gemm, j);
  if (ft_) {
    // V is always verified before the trailing update reads it: with
    // row checksums alone, a corrupted reflector would produce a
    // consistently-wrong (hence invisible) update.
    std::vector<BlockId> v_in;
    for (int i = j; i < nb_; ++i) v_in.emplace_back(i, j);
    verify_batch(v_in, fault::Op::Trsm, Sums::Rows);
    if (verify_this_iter) {
      std::vector<BlockId> c_in;
      for (int i = j; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k) c_in.emplace_back(i, k);
      verify_batch(c_in, fault::Op::Gemm, Sums::Rows);
    } else {
      // Opt 3: trailing-block verification skipped this iteration.
      tel_.verify_skipped(fault::Op::Gemm,
                          static_cast<std::size_t>(nb_ - j) *
                              static_cast<std::size_t>(nb_ - j - 1),
                          j);
    }
  }
  {
    const DMat v = data_region(off(j), off(j), mrem, jb);
    const DMat t = DMat{&d_t_, 0, jb, jb, b_};
    const DMat c = data_region(off(j), off(j) + jb, mrem, right);
    KernelDesc d{"larfb", KernelClass::Blas3,
                 4LL * mrem * jb * right, 0};
    m_.launch(s_compute_, d, [v, t, c] {
      blas::larfb_left_t(ConstMatrixView<double>(v.view()),
                         ConstMatrixView<double>(t.view()), c.view());
    });
  }
  hook_computing(fault::Op::Gemm, j);
  if (ft_) {
    // rchk(M C) = M rchk(C): the identical reflector applies to the
    // checksum columns.
    m_.stream_wait_event(s_chk_, e_panel);
    const DMat v = data_region(off(j), off(j), mrem, jb);
    const DMat t = DMat{&d_t_, 0, jb, jb, b_};
    const DMat strip = rchk_strip(off(j), mrem, j + 1, nb_);
    KernelDesc d{"larfb_rchk", KernelClass::Blas3Skinny,
                 4LL * mrem * jb * 2 * (nb_ - j - 1), 0};
    m_.launch(s_chk_, d, [v, t, strip] {
      blas::larfb_left_t(ConstMatrixView<double>(v.view()),
                         ConstMatrixView<double>(t.view()), strip.view());
    });
  }
}

void QrRun::final_sweep() {
  cur_iter_ = -1;  // telemetry: the sweep belongs to no outer iteration
  tel_.begin_iteration(-1);
  std::vector<BlockId> all;
  for (int k = 0; k < nb_; ++k)
    for (int i = 0; i < nb_; ++i) all.emplace_back(i, k);
  verify_batch(all, fault::Op::Trsm, Sums::Rows);
}

// ----------------------------------------------------------------------
// Task-graph (DAG) runtime path (docs/runtime.md): the same iteration
// in bulk issue order (driver.cpp has the construction rules), so the
// numerics — tau included — are bit-identical. The block reflector's T
// factor is a real tile here: LARFB tasks read it, the next panel's
// staging copy overwrites it, and the inferred WAR edge keeps the
// overlap sound.
// ----------------------------------------------------------------------

void QrRun::dag_iteration(runtime::TaskGraph& g, int j) {
  const int jb = bs(j);
  const int mrem = n_ - off(j);
  const int right = n_ - off(j) - jb;
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;

  runtime::TaskOptions base;
  base.phase = obs::Phase::Base;
  base.iteration = j;
  runtime::TaskOptions update = base;
  update.phase = obs::Phase::Update;
  runtime::TaskOptions host = base;
  host.phase = obs::Phase::Base;
  host.where = runtime::Where::Host;

  // ---------------- panel: fetch, factor + T on host, re-encode ------
  dag_hook(g, "hook_storage_potf2", j,
           [this, j] { hook_storage(fault::Op::Potf2, j); });
  if (ft_) {
    for (int i = j; i < nb_; ++i)
      dag_verify(g, i, j, fault::Op::Potf2, j, Sums::Rows);
  }
  {
    std::vector<runtime::Footprint> fp;
    for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
    fp.push_back(runtime::write(htile()));
    g.add_task("d2h_panel", std::move(fp),
               [this, j, jb, mrem](const runtime::TaskContext& c) {
                 for (int i = j; i < nb_; ++i) c.tiles.read(dtile(i, j));
                 c.tiles.write(htile());
                 m_.memcpy_d2h_2d(
                     m_.numeric() ? h_panel_.data() : nullptr, n_, d_a_,
                     static_cast<std::int64_t>(off(j)) * n_ + off(j), n_,
                     mrem, jb, c.stream);
               },
               base);
  }
  g.add_task("geqf2+larft", {runtime::rw(htile())},
             [this, j, mrem, jb](const runtime::TaskContext& c) {
               c.tiles.rw(htile());
               KernelDesc d{"geqf2+larft", KernelClass::HostPotf2,
                            3LL * mrem * jb * jb, 0};
               m_.host_compute(d, [this, j, mrem, jb] {
                 auto panel = h_panel_.block(0, 0, mrem, jb);
                 blas::geqf2(panel, h_tau_.data() + off(j));
                 blas::larft(ConstMatrixView<double>(panel),
                             h_tau_.data() + off(j),
                             h_t_.block(0, 0, jb, jb));
               });
             },
             host);
  if (ft_) {
    g.add_task("encode_panel_r", {runtime::rw(htile())},
               [this, j, mrem, jb](const runtime::TaskContext& c) {
                 c.tiles.rw(htile());
                 KernelDesc d{"encode_panel_r", KernelClass::HostChecksum,
                              4LL * mrem * jb, 0};
                 m_.host_compute(d, [this, j, jb] {
                   for (int i = j; i < nb_; ++i) {
                     encode_block_rows(
                         ConstMatrixView<double>(
                             h_panel_.block(off(i) - off(j), 0, bs(i), jb)),
                         h_panel_chk_.block(off(i), 0, bs(i),
                                            kChecksumRows));
                   }
                 });
               },
               host);
  }
  {
    std::vector<runtime::Footprint> fp{runtime::read(htile())};
    for (int i = j; i < nb_; ++i) fp.push_back(runtime::write(dtile(i, j)));
    g.add_task("h2d_panel", std::move(fp),
               [this, j, jb, mrem](const runtime::TaskContext& c) {
                 c.tiles.read(htile());
                 for (int i = j; i < nb_; ++i) c.tiles.write(dtile(i, j));
                 m_.memcpy_h2d_2d(
                     d_a_, static_cast<std::int64_t>(off(j)) * n_ + off(j),
                     n_, m_.numeric() ? h_panel_.data() : nullptr, n_, mrem,
                     jb, c.stream);
               },
               base);
  }
  g.add_task("h2d_t", {runtime::read(htile()), runtime::write(ttile())},
             [this, jb](const runtime::TaskContext& c) {
               c.tiles.read(htile());
               c.tiles.write(ttile());
               // T is unprotected by checksums (see the class comment's
               // exposure note): keep its copy out of the fault surface.
               sim::TransferArmGuard t_arm(m_, /*h2d=*/false,
                                           /*d2h=*/false);
               m_.memcpy_h2d(d_t_, 0, m_.numeric() ? h_t_.data() : nullptr,
                             static_cast<std::int64_t>(jb) * jb, c.stream);
             },
             base);
  if (ft_) {
    std::vector<runtime::Footprint> fp{runtime::read(htile())};
    for (int i = j; i < nb_; ++i)
      fp.push_back(runtime::write(rctile(i, j)));
    g.add_task("h2d_panel_chk", std::move(fp),
               [this, j, jb, mrem](const runtime::TaskContext& c) {
                 c.tiles.read(htile());
                 for (int i = j; i < nb_; ++i) c.tiles.write(rctile(i, j));
                 m_.memcpy_h2d_2d(
                     d_rchk_,
                     static_cast<std::int64_t>(2 * j) * n_ + off(j), n_,
                     m_.numeric() ? &h_panel_chk_(off(j), 0) : nullptr,
                     h_panel_chk_.ld(), mrem, kChecksumRows, c.stream);
               },
               update);
  }
  dag_hook(g, "hook_computing_potf2", j,
           [this, j] { hook_computing(fault::Op::Potf2, j); });

  if (right <= 0) return;

  // ---------------- trailing update: C := (I - V T V^T)^T C ----------
  dag_hook(g, "hook_storage_trsm", j,
           [this, j] { hook_storage(fault::Op::Trsm, j); });
  dag_hook(g, "hook_storage_gemm", j,
           [this, j] { hook_storage(fault::Op::Gemm, j); });
  if (ft_) {
    // V is always verified before the trailing update reads it (see the
    // bulk path); the trailing blocks obey the K interval.
    for (int i = j; i < nb_; ++i)
      dag_verify(g, i, j, fault::Op::Trsm, j, Sums::Rows);
    if (verify_this_iter) {
      for (int i = j; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k)
          dag_verify(g, i, k, fault::Op::Gemm, j, Sums::Rows);
    } else {
      tel_.verify_skipped(fault::Op::Gemm,
                          static_cast<std::size_t>(nb_ - j) *
                              static_cast<std::size_t>(nb_ - j - 1),
                          j);
    }
  }
  {
    std::vector<runtime::Footprint> fp;
    for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
    fp.push_back(runtime::read(ttile()));
    for (int i = j; i < nb_; ++i)
      for (int k = j + 1; k < nb_; ++k)
        fp.push_back(runtime::rw(dtile(i, k)));
    g.add_task("larfb", std::move(fp),
               [this, j, jb, mrem, right](const runtime::TaskContext& c) {
                 for (int i = j; i < nb_; ++i) c.tiles.read(dtile(i, j));
                 c.tiles.read(ttile());
                 for (int i = j; i < nb_; ++i)
                   for (int k = j + 1; k < nb_; ++k) c.tiles.rw(dtile(i, k));
                 const DMat v = data_region(off(j), off(j), mrem, jb);
                 const DMat t = DMat{&d_t_, 0, jb, jb, b_};
                 const DMat cmat =
                     data_region(off(j), off(j) + jb, mrem, right);
                 KernelDesc d{"larfb", KernelClass::Blas3,
                              4LL * mrem * jb * right, 0};
                 m_.launch(c.stream, d, [v, t, cmat] {
                   blas::larfb_left_t(ConstMatrixView<double>(v.view()),
                                      ConstMatrixView<double>(t.view()),
                                      cmat.view());
                 });
               },
               base);
  }
  dag_hook(g, "hook_computing_gemm", j,
           [this, j] { hook_computing(fault::Op::Gemm, j); });
  if (ft_) {
    // rchk(M C) = M rchk(C): the identical reflector applies to the
    // checksum columns.
    std::vector<runtime::Footprint> fp;
    for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
    fp.push_back(runtime::read(ttile()));
    for (int i = j; i < nb_; ++i)
      for (int k = j + 1; k < nb_; ++k)
        fp.push_back(runtime::rw(rctile(i, k)));
    g.add_task("larfb_rchk", std::move(fp),
               [this, j, jb, mrem](const runtime::TaskContext& c) {
                 for (int i = j; i < nb_; ++i) c.tiles.read(dtile(i, j));
                 c.tiles.read(ttile());
                 for (int i = j; i < nb_; ++i)
                   for (int k = j + 1; k < nb_; ++k)
                     c.tiles.rw(rctile(i, k));
                 const DMat v = data_region(off(j), off(j), mrem, jb);
                 const DMat t = DMat{&d_t_, 0, jb, jb, b_};
                 const DMat strip = rchk_strip(off(j), mrem, j + 1, nb_);
                 KernelDesc d{"larfb_rchk", KernelClass::Blas3Skinny,
                              4LL * mrem * jb * 2 * (nb_ - j - 1), 0};
                 m_.launch(c.stream, d, [v, t, strip] {
                   blas::larfb_left_t(ConstMatrixView<double>(v.view()),
                                      ConstMatrixView<double>(t.view()),
                                      strip.view());
                 });
               },
               update);
  }
}

void QrRun::dag_sweep(runtime::TaskGraph& g) {
  // End sweep over the finished factor (see final_sweep). Each verify
  // depends only on its block's last writer, so retired columns are
  // swept while the factorization tail still runs.
  for (int k = 0; k < nb_; ++k)
    for (int i = 0; i < nb_; ++i)
      dag_verify(g, i, k, fault::Op::Trsm, -1, Sums::Rows);
}

}  // namespace

CholeskyResult qr(Machine& machine, Matrix<double>* a,
                  std::vector<double>* tau, int n, const QrOptions& options,
                  fault::Injector* injector) {
  QrRun run(machine, a, tau, n, options, injector);
  return run.execute();
}

}  // namespace ftla::abft
