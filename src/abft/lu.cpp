#include "abft/lu.hpp"

#include <algorithm>
#include <vector>

#include "abft/driver.hpp"
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

namespace {

using detail::BlockId;
using detail::Sums;

constexpr const char* kUncorrectable = "more than one error per checksum lane";

class LuRun final : public detail::Driver {
 public:
  LuRun(Machine& m, Matrix<double>* a, int n, const LuOptions& opt,
        fault::Injector* injector)
      : Driver(m, a, n, opt, injector, Ladder::AnyError, "lu",
               // LU costs 2n^3/3 flops.
               2.0 * n * static_cast<double>(n) * n / 3.0) {
    FTLA_CHECK_MSG(opt_.variant == Variant::NoFt ||
                       opt_.variant == Variant::EnhancedOnline,
                   "the LU extension implements NoFt and EnhancedOnline");
  }

 private:
  /// Column checksums of block (i, k): 2 rows in the (2nb x n) matrix.
  [[nodiscard]] DMat cchk_block(int i, int k) {
    return DMat{&d_cchk_,
                static_cast<std::int64_t>(off(k)) * (2 * nb_) + 2 * i,
                kChecksumRows, bs(k), 2 * nb_};
  }
  [[nodiscard]] DMat cchk_strip(int i0, int i1, int col, int cols) {
    return DMat{&d_cchk_,
                static_cast<std::int64_t>(col) * (2 * nb_) + 2 * i0,
                2 * (i1 - i0), cols, 2 * nb_};
  }
  /// Row checksums of block (i, k): 2 columns in the (n x 2nb) matrix.
  [[nodiscard]] DMat rchk_block(int i, int k) {
    return DMat{&d_rchk_, static_cast<std::int64_t>(2 * k) * n_ + off(i),
                bs(i), kChecksumRows, n_};
  }
  [[nodiscard]] DMat rchk_strip(int row, int rows, int k0, int k1) {
    return DMat{&d_rchk_, static_cast<std::int64_t>(2 * k0) * n_ + row, rows,
                2 * (k1 - k0), n_};
  }

  void allocate() override;
  void iterate(int j) override;
  void final_sweep() override;
  void dag_iteration(runtime::TaskGraph& g, int j) override;
  void dag_sweep(runtime::TaskGraph& g) override;

  [[nodiscard]] std::vector<runtime::TileKey> chk_tiles(
      int i, int k) const override {
    return {cctile(i, k), rctile(i, k)};
  }
  void issue_encode(StreamId s, int i, int k) override;
  /// Recalc + compare launches for one block against its column
  /// (Sums::Columns) or row (Sums::Rows) checksums.
  void issue_verify(Sums sums, StreamId s, int bi, int bk, fault::Op attr,
                    std::int64_t pos, int iter) override;
  [[nodiscard]] const char* verify_task_name(Sums sums) const override {
    return sums == Sums::Columns ? "verify_c" : "verify_r";
  }
  /// Defaults per LU context: the panel (Potf2), the U row (Trsm) or a
  /// trailing block (Gemm) that the op reads or writes.
  [[nodiscard]] BlockId strike_target(const fault::FaultSpec& spec,
                                      int j) const override {
    const int next = std::min(j + 1, nb_ - 1);
    return {spec.block_row >= 0 ? spec.block_row
                                : (spec.op == fault::Op::Trsm ? j : next),
            spec.block_col >= 0 ? spec.block_col
                                : (spec.op == fault::Op::Potf2 ? j : next)};
  }

  /// Tile namespaces beyond the shared ones: the two checksum flavors.
  enum LuTile : int { kTileCchk = kTileDriver, kTileRchk };
  [[nodiscard]] static runtime::TileKey cctile(int i, int k) {
    return {kTileCchk, i, k};
  }
  [[nodiscard]] static runtime::TileKey rctile(int i, int k) {
    return {kTileRchk, i, k};
  }

  DeviceBuffer d_cchk_;  // column checksums, 2nb x n
  DeviceBuffer d_rchk_;  // row checksums, n x 2nb

  Matrix<double> h_panel_;      // host panel (n x b)
  Matrix<double> h_panel_chk_;  // re-encoded column checksums (2nb x b)
};

void LuRun::allocate() {
  d_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
  if (ft_) {
    d_cchk_ = m_.alloc(static_cast<std::int64_t>(2 * nb_) * n_);
    d_rchk_ = m_.alloc(static_cast<std::int64_t>(n_) * 2 * nb_);
    scratch_capacity_ =
        2LL * (static_cast<std::int64_t>(nb_) * nb_ + 2 * nb_) *
        std::max(b_, kChecksumRows);
    d_scratch_ = m_.alloc(scratch_capacity_);
    h_panel_chk_ = Matrix<double>(2 * nb_, b_);
  }
  h_panel_ = Matrix<double>(n_, b_);
  create_streams(/*xfer_lane=*/false);
}

void LuRun::issue_encode(StreamId s, int i, int k) {
  const DMat blk = data_block(i, k);
  const DMat cchk = cchk_block(i, k);
  const DMat rchk = rchk_block(i, k);
  KernelDesc dc{"encode_c", KernelClass::Blas2,
                blas::gemv_flops(blk.rows, blk.cols) * 2, 0};
  m_.launch(s, dc, [blk, cchk] {
    encode_block(ConstMatrixView<double>(blk.view()), cchk.view());
  });
  KernelDesc dr{"encode_r", KernelClass::Blas2,
                blas::gemv_flops(blk.rows, blk.cols) * 2, 0};
  m_.launch(s, dr, [blk, rchk] {
    encode_block_rows(ConstMatrixView<double>(blk.view()), rchk.view());
  });
}

void LuRun::issue_verify(Sums sums, StreamId s, int bi, int bk,
                         fault::Op attr, std::int64_t pos, int iter) {
  const DMat blk = data_block(bi, bk);
  const bool cols = sums == Sums::Columns;
  const DMat scratch = cols ? DMat{&d_scratch_, pos, kChecksumRows, blk.cols, 2}
                            : DMat{&d_scratch_, pos, blk.rows, kChecksumRows,
                                   blk.rows};
  KernelDesc rd{cols ? "recalc_c" : "recalc_r", KernelClass::Blas2,
                blas::gemv_flops(blk.rows, blk.cols) * 2, 0};
  m_.launch(s, rd, [blk, scratch, cols] {
    if (cols) {
      encode_block(ConstMatrixView<double>(blk.view()), scratch.view());
    } else {
      encode_block_rows(ConstMatrixView<double>(blk.view()), scratch.view());
    }
  });
  const DMat cchk = cchk_block(bi, bk);
  const DMat rchk = rchk_block(bi, bk);
  const Tolerance tol = opt_.tolerance;
  KernelDesc cd{cols ? "verify_c" : "verify_r", KernelClass::Compare,
                4LL * (cols ? blk.cols : blk.rows), 0};
  const std::int64_t rflops = rd.flops;
  m_.launch(s, cd, [this, blk, cchk, rchk, tol, scratch, cols, attr, bi, bk,
                    rflops, iter] {
    const ConstMatrixView<double> fresh(scratch.view());
    auto out = cols ? verify_block(blk.view(), cchk.view(), fresh, tol)
                    : verify_block_rows(blk.view(), rchk.view(), fresh, tol);
    // Blocks carry both checksum flavors; after a correction through one
    // side, re-derive the other side's checksums from the repaired data
    // so the two stay coherent (corrections are rare, so the O(B^2)
    // re-encode is negligible).
    if (!out.corrections.empty()) {
      if (cols) {
        encode_block_rows(ConstMatrixView<double>(blk.view()), rchk.view());
      } else {
        encode_block(ConstMatrixView<double>(blk.view()), cchk.view());
      }
    }
    tel_.block_verified(out, attr, iter, bi, bk, rflops, off(bi), blk.rows,
                        off(bk), blk.cols);
    absorb(out, kUncorrectable);
  });
}

void LuRun::iterate(int j) {
  cur_iter_ = j;
  tel_.begin_iteration(j);
  const int jb = bs(j);
  const int below = n_ - off(j);           // panel height (incl. diagonal)
  const int right = n_ - off(j) - jb;      // trailing width
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;

  // ---------------- panel: fetch, factor on host, re-encode ----------
  hook_storage(fault::Op::Potf2, j);
  if (ft_) {
    // Panel inputs are always verified: a corrupted pivot path is the
    // LU analog of the unrecoverable SYRK input (paper Opt 3 logic).
    std::vector<BlockId> in;
    for (int i = j; i < nb_; ++i) in.emplace_back(i, j);
    verify_batch(in, fault::Op::Potf2, Sums::Columns);
  }
  m_.memcpy_d2h_2d(m_.numeric() ? h_panel_.data() : nullptr, n_, d_a_,
                   static_cast<std::int64_t>(off(j)) * n_ + off(j), n_,
                   below, jb, s_compute_, /*blocking=*/true);
  {
    KernelDesc d{"getf2", KernelClass::HostPotf2,
                 // ~ m*b^2 flops for the panel factorization
                 static_cast<std::int64_t>(below) * jb * jb, 0};
    m_.host_compute(d, [this, below, jb] {
      blas::getf2_nopiv(h_panel_.block(0, 0, below, jb));
    });
  }
  if (ft_) {
    KernelDesc d{"encode_panel", KernelClass::HostChecksum,
                 4LL * below * jb, 0};
    m_.host_compute(d, [this, j, below, jb] {
      // Column checksums of each finished panel block, derived on the
      // (reliable) host before the factors return to device memory.
      for (int i = j; i < nb_; ++i) {
        encode_block(ConstMatrixView<double>(
                         h_panel_.block(off(i) - off(j), 0, bs(i), jb)),
                     h_panel_chk_.block(2 * i, 0, kChecksumRows, jb));
      }
    });
  }
  // The armed stochastic transfer faults strike these H2D return trips
  // of the factored panel and its checksums; every landed corruption
  // stays inconsistent with the separately shipped checksums, so the
  // K-gated trailing verifications or the final sweep catch it. The D2H
  // panel staging copy above has no arrival check yet and stays out of
  // the armed surface (see docs/fault-model.md, residual exposures).
  m_.memcpy_h2d_2d(d_a_, static_cast<std::int64_t>(off(j)) * n_ + off(j), n_,
                   m_.numeric() ? h_panel_.data() : nullptr, n_, below, jb,
                   s_compute_);
  // Applied after the transfer so the corrupted value actually lands in
  // device memory.
  hook_computing(fault::Op::Potf2, j);
  if (ft_) {
    // The re-encoded panel checksums ride back only because FT is on.
    const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
    m_.memcpy_h2d_2d(d_cchk_,
                     static_cast<std::int64_t>(off(j)) * (2 * nb_) + 2 * j,
                     2 * nb_, m_.numeric() ? &h_panel_chk_(2 * j, 0) : nullptr,
                     h_panel_chk_.ld(), 2 * (nb_ - j), jb, s_compute_);
  }
  const EventId e_panel = m_.record_event(s_compute_);

  if (right <= 0) return;

  // ---------------- TRSM: U row solve ---------------------------------
  hook_storage(fault::Op::Trsm, j);
  if (ft_) {
    // The diagonal block is always verified before its solve; the
    // targets follow the K interval.
    std::vector<BlockId> in;
    in.emplace_back(j, j);
    if (verify_this_iter) {
      for (int k = j + 1; k < nb_; ++k) in.emplace_back(j, k);
    } else {
      tel_.verify_skipped(fault::Op::Trsm,
                          static_cast<std::size_t>(nb_ - j - 1), j);
    }
    verify_batch(in, fault::Op::Trsm, Sums::Columns);
  }
  sim::gpublas::trsm(m_, s_compute_, Side::Left, Uplo::Lower, Trans::No,
                     Diag::Unit, 1.0, data_block(j, j),
                     data_region(off(j), off(j) + jb, jb, right));
  hook_computing(fault::Op::Trsm, j);
  // rchk(U') = L^{-1} rchk(A) on the checksum stream.
  if (ft_) {
    // Neutral gpublas name ("trsm"): the scope tags it Update.
    const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
    m_.stream_wait_event(s_chk_, e_panel);
    sim::gpublas::trsm(m_, s_chk_, Side::Left, Uplo::Lower, Trans::No,
                       Diag::Unit, 1.0, data_block(j, j),
                       rchk_strip(off(j), jb, j + 1, nb_),
                       KernelClass::Blas3Skinny);
  }

  // ---------------- GEMM: trailing update -----------------------------
  hook_storage(fault::Op::Gemm, j);
  if (ft_) {
    // The GEMM multipliers — the L panel and the U row — multiply the
    // data update and the checksum update *identically*, so corruption
    // in either propagates checksum-consistently into the trailing
    // matrix and can never be detected afterwards. They are verified
    // every iteration, the LU analog of Cholesky's always-verified
    // SYRK inputs. Only the update targets tolerate the K interval
    // (Opt 3): a struck target stays inconsistent with its stored
    // checksums and is caught by a later verification or the sweep.
    std::vector<BlockId> col_in;
    for (int i = j + 1; i < nb_; ++i) col_in.emplace_back(i, j);  // L panel
    if (verify_this_iter) {
      for (int i = j + 1; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k) col_in.emplace_back(i, k);
    } else {
      // Opt 3: trailing-target verification skipped this iteration.
      const std::size_t t = static_cast<std::size_t>(nb_ - j - 1);
      tel_.verify_skipped(fault::Op::Gemm, t * t, j);
    }
    verify_batch(col_in, fault::Op::Gemm, Sums::Columns);
    std::vector<BlockId> row_in;
    for (int k = j + 1; k < nb_; ++k) row_in.emplace_back(j, k);  // U row
    verify_batch(row_in, fault::Op::Gemm, Sums::Rows);
  }
  sim::gpublas::gemm(m_, s_compute_, Trans::No, Trans::No, -1.0,
                     data_region(off(j) + jb, off(j), right, jb),
                     data_region(off(j), off(j) + jb, jb, right), 1.0,
                     data_region(off(j) + jb, off(j) + jb, right, right));
  hook_computing(fault::Op::Gemm, j);
  if (ft_) {
    const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
    // cchk(B') = cchk(B) - cchk(L) U_row  (2(nb-j-1) x right GEMM)
    sim::gpublas::gemm(m_, s_chk_, Trans::No, Trans::No, -1.0,
                       cchk_strip(j + 1, nb_, off(j), jb),
                       data_region(off(j), off(j) + jb, jb, right), 1.0,
                       cchk_strip(j + 1, nb_, off(j) + jb, right),
                       KernelClass::Blas3Skinny);
    // rchk(B') = rchk(B) - L rchk(U_row)  (right x 2(nb-j-1) GEMM)
    sim::gpublas::gemm(m_, s_chk_, Trans::No, Trans::No, -1.0,
                       data_region(off(j) + jb, off(j), right, jb),
                       rchk_strip(off(j), jb, j + 1, nb_), 1.0,
                       rchk_strip(off(j) + jb, right, j + 1, nb_),
                       KernelClass::Blas3Skinny);
  }
}

void LuRun::final_sweep() {
  cur_iter_ = -1;  // telemetry: the sweep belongs to no outer iteration
  tel_.begin_iteration(-1);
  // Right-looking LU never re-reads finished blocks, so storage errors
  // striking them after their last use can only be caught here: one
  // verification pass over the whole factor (column checksums for the
  // L region and the diagonal, row checksums for the U region).
  std::vector<BlockId> l_blocks;
  std::vector<BlockId> u_blocks;
  for (int k = 0; k < nb_; ++k) {
    for (int i = 0; i < nb_; ++i) {
      if (i >= k) {
        l_blocks.emplace_back(i, k);
      } else {
        u_blocks.emplace_back(i, k);
      }
    }
  }
  verify_batch(l_blocks, fault::Op::Potf2, Sums::Columns);
  verify_batch(u_blocks, fault::Op::Trsm, Sums::Rows);
}

// ----------------------------------------------------------------------
// Task-graph (DAG) runtime path (docs/runtime.md): the same iteration
// in bulk issue order, as dependency-inferred tasks (driver.cpp has the
// construction rules).
// ----------------------------------------------------------------------

void LuRun::dag_iteration(runtime::TaskGraph& g, int j) {
  const int jb = bs(j);
  const int below = n_ - off(j);       // panel height (incl. diagonal)
  const int right = n_ - off(j) - jb;  // trailing width
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;

  runtime::TaskOptions base;
  base.phase = obs::Phase::Base;
  base.iteration = j;
  runtime::TaskOptions update = base;
  update.phase = obs::Phase::Update;
  runtime::TaskOptions host = base;
  host.phase = obs::Phase::Base;
  host.where = runtime::Where::Host;

  // ---------------- panel: fetch, factor on host, re-encode ----------
  dag_hook(g, "hook_storage_potf2", j,
           [this, j] { hook_storage(fault::Op::Potf2, j); });
  if (ft_) {
    // Panel inputs are always verified (see the bulk path).
    for (int i = j; i < nb_; ++i)
      dag_verify(g, i, j, fault::Op::Potf2, j, Sums::Columns);
  }
  {
    std::vector<runtime::Footprint> fp;
    for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
    fp.push_back(runtime::write(htile()));
    g.add_task("d2h_panel", std::move(fp),
               [this, j, jb, below](const runtime::TaskContext& c) {
                 for (int i = j; i < nb_; ++i) c.tiles.read(dtile(i, j));
                 c.tiles.write(htile());
                 m_.memcpy_d2h_2d(
                     m_.numeric() ? h_panel_.data() : nullptr, n_, d_a_,
                     static_cast<std::int64_t>(off(j)) * n_ + off(j), n_,
                     below, jb, c.stream);
               },
               base);
  }
  g.add_task("getf2", {runtime::rw(htile())},
             [this, below, jb](const runtime::TaskContext& c) {
               c.tiles.rw(htile());
               KernelDesc d{"getf2", KernelClass::HostPotf2,
                            static_cast<std::int64_t>(below) * jb * jb, 0};
               m_.host_compute(d, [this, below, jb] {
                 blas::getf2_nopiv(h_panel_.block(0, 0, below, jb));
               });
             },
             host);
  if (ft_) {
    g.add_task("encode_panel", {runtime::rw(htile())},
               [this, j, below, jb](const runtime::TaskContext& c) {
                 c.tiles.rw(htile());
                 KernelDesc d{"encode_panel", KernelClass::HostChecksum,
                              4LL * below * jb, 0};
                 m_.host_compute(d, [this, j, jb] {
                   for (int i = j; i < nb_; ++i) {
                     encode_block(
                         ConstMatrixView<double>(
                             h_panel_.block(off(i) - off(j), 0, bs(i), jb)),
                         h_panel_chk_.block(2 * i, 0, kChecksumRows, jb));
                   }
                 });
               },
               host);
  }
  {
    std::vector<runtime::Footprint> fp{runtime::read(htile())};
    for (int i = j; i < nb_; ++i) fp.push_back(runtime::write(dtile(i, j)));
    g.add_task("h2d_panel", std::move(fp),
               [this, j, jb, below](const runtime::TaskContext& c) {
                 c.tiles.read(htile());
                 for (int i = j; i < nb_; ++i) c.tiles.write(dtile(i, j));
                 m_.memcpy_h2d_2d(
                     d_a_, static_cast<std::int64_t>(off(j)) * n_ + off(j),
                     n_, m_.numeric() ? h_panel_.data() : nullptr, n_, below,
                     jb, c.stream);
               },
               base);
  }
  dag_hook(g, "hook_computing_potf2", j,
           [this, j] { hook_computing(fault::Op::Potf2, j); });
  if (ft_) {
    std::vector<runtime::Footprint> fp{runtime::read(htile())};
    for (int i = j; i < nb_; ++i) fp.push_back(runtime::write(cctile(i, j)));
    g.add_task("h2d_panel_chk", std::move(fp),
               [this, j, jb](const runtime::TaskContext& c) {
                 c.tiles.read(htile());
                 for (int i = j; i < nb_; ++i) c.tiles.write(cctile(i, j));
                 m_.memcpy_h2d_2d(
                     d_cchk_,
                     static_cast<std::int64_t>(off(j)) * (2 * nb_) + 2 * j,
                     2 * nb_,
                     m_.numeric() ? &h_panel_chk_(2 * j, 0) : nullptr,
                     h_panel_chk_.ld(), 2 * (nb_ - j), jb, c.stream);
               },
               update);
  }

  if (right <= 0) return;

  // ---------------- TRSM: U row solve ---------------------------------
  dag_hook(g, "hook_storage_trsm", j,
           [this, j] { hook_storage(fault::Op::Trsm, j); });
  if (ft_) {
    dag_verify(g, j, j, fault::Op::Trsm, j, Sums::Columns);
    if (verify_this_iter) {
      for (int k = j + 1; k < nb_; ++k)
        dag_verify(g, j, k, fault::Op::Trsm, j, Sums::Columns);
    } else {
      tel_.verify_skipped(fault::Op::Trsm,
                          static_cast<std::size_t>(nb_ - j - 1), j);
    }
  }
  {
    std::vector<runtime::Footprint> fp{runtime::read(dtile(j, j))};
    for (int k = j + 1; k < nb_; ++k) fp.push_back(runtime::rw(dtile(j, k)));
    g.add_task("trsm", std::move(fp),
               [this, j, jb, right](const runtime::TaskContext& c) {
                 c.tiles.read(dtile(j, j));
                 for (int k = j + 1; k < nb_; ++k) c.tiles.rw(dtile(j, k));
                 sim::gpublas::trsm(
                     m_, c.stream, Side::Left, Uplo::Lower, Trans::No,
                     Diag::Unit, 1.0, data_block(j, j),
                     data_region(off(j), off(j) + jb, jb, right));
               },
               base);
  }
  dag_hook(g, "hook_computing_trsm", j,
           [this, j] { hook_computing(fault::Op::Trsm, j); });
  if (ft_) {
    // rchk(U') = L^{-1} rchk(A).
    std::vector<runtime::Footprint> fp{runtime::read(dtile(j, j))};
    for (int k = j + 1; k < nb_; ++k)
      fp.push_back(runtime::rw(rctile(j, k)));
    g.add_task("chk_trsm", std::move(fp),
               [this, j, jb](const runtime::TaskContext& c) {
                 c.tiles.read(dtile(j, j));
                 for (int k = j + 1; k < nb_; ++k) c.tiles.rw(rctile(j, k));
                 sim::gpublas::trsm(m_, c.stream, Side::Left, Uplo::Lower,
                                    Trans::No, Diag::Unit, 1.0,
                                    data_block(j, j),
                                    rchk_strip(off(j), jb, j + 1, nb_),
                                    KernelClass::Blas3Skinny);
               },
               update);
  }

  // ---------------- GEMM: trailing update -----------------------------
  dag_hook(g, "hook_storage_gemm", j,
           [this, j] { hook_storage(fault::Op::Gemm, j); });
  if (ft_) {
    // Multipliers (L panel, U row) are always verified; the trailing
    // targets obey the K interval — see the bulk path's rationale.
    if (!verify_this_iter) {
      const std::size_t t = static_cast<std::size_t>(nb_ - j - 1);
      tel_.verify_skipped(fault::Op::Gemm, t * t, j);
    }
    for (int i = j + 1; i < nb_; ++i)
      dag_verify(g, i, j, fault::Op::Gemm, j, Sums::Columns);  // L panel
    if (verify_this_iter) {
      for (int i = j + 1; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k)
          dag_verify(g, i, k, fault::Op::Gemm, j, Sums::Columns);
    }
    for (int k = j + 1; k < nb_; ++k)
      dag_verify(g, j, k, fault::Op::Gemm, j, Sums::Rows);  // U row
  }
  {
    std::vector<runtime::Footprint> fp;
    for (int i = j + 1; i < nb_; ++i)
      fp.push_back(runtime::read(dtile(i, j)));
    for (int k = j + 1; k < nb_; ++k)
      fp.push_back(runtime::read(dtile(j, k)));
    for (int i = j + 1; i < nb_; ++i)
      for (int k = j + 1; k < nb_; ++k)
        fp.push_back(runtime::rw(dtile(i, k)));
    g.add_task("gemm", std::move(fp),
               [this, j, jb, right](const runtime::TaskContext& c) {
                 for (int i = j + 1; i < nb_; ++i) c.tiles.read(dtile(i, j));
                 for (int k = j + 1; k < nb_; ++k) c.tiles.read(dtile(j, k));
                 for (int i = j + 1; i < nb_; ++i)
                   for (int k = j + 1; k < nb_; ++k) c.tiles.rw(dtile(i, k));
                 sim::gpublas::gemm(
                     m_, c.stream, Trans::No, Trans::No, -1.0,
                     data_region(off(j) + jb, off(j), right, jb),
                     data_region(off(j), off(j) + jb, jb, right), 1.0,
                     data_region(off(j) + jb, off(j) + jb, right, right));
               },
               base);
  }
  dag_hook(g, "hook_computing_gemm", j,
           [this, j] { hook_computing(fault::Op::Gemm, j); });
  if (ft_) {
    {
      // cchk(B') = cchk(B) - cchk(L) U_row
      std::vector<runtime::Footprint> fp;
      for (int i = j + 1; i < nb_; ++i)
        fp.push_back(runtime::read(cctile(i, j)));
      for (int k = j + 1; k < nb_; ++k)
        fp.push_back(runtime::read(dtile(j, k)));
      for (int i = j + 1; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k)
          fp.push_back(runtime::rw(cctile(i, k)));
      g.add_task("chk_gemm_c", std::move(fp),
                 [this, j, jb, right](const runtime::TaskContext& c) {
                   for (int i = j + 1; i < nb_; ++i)
                     c.tiles.read(cctile(i, j));
                   for (int k = j + 1; k < nb_; ++k)
                     c.tiles.read(dtile(j, k));
                   for (int i = j + 1; i < nb_; ++i)
                     for (int k = j + 1; k < nb_; ++k)
                       c.tiles.rw(cctile(i, k));
                   sim::gpublas::gemm(
                       m_, c.stream, Trans::No, Trans::No, -1.0,
                       cchk_strip(j + 1, nb_, off(j), jb),
                       data_region(off(j), off(j) + jb, jb, right), 1.0,
                       cchk_strip(j + 1, nb_, off(j) + jb, right),
                       KernelClass::Blas3Skinny);
                 },
                 update);
    }
    {
      // rchk(B') = rchk(B) - L rchk(U_row)
      std::vector<runtime::Footprint> fp;
      for (int i = j + 1; i < nb_; ++i)
        fp.push_back(runtime::read(dtile(i, j)));
      for (int k = j + 1; k < nb_; ++k)
        fp.push_back(runtime::read(rctile(j, k)));
      for (int i = j + 1; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k)
          fp.push_back(runtime::rw(rctile(i, k)));
      g.add_task("chk_gemm_r", std::move(fp),
                 [this, j, jb, right](const runtime::TaskContext& c) {
                   for (int i = j + 1; i < nb_; ++i)
                     c.tiles.read(dtile(i, j));
                   for (int k = j + 1; k < nb_; ++k)
                     c.tiles.read(rctile(j, k));
                   for (int i = j + 1; i < nb_; ++i)
                     for (int k = j + 1; k < nb_; ++k)
                       c.tiles.rw(rctile(i, k));
                   sim::gpublas::gemm(
                       m_, c.stream, Trans::No, Trans::No, -1.0,
                       data_region(off(j) + jb, off(j), right, jb),
                       rchk_strip(off(j), jb, j + 1, nb_), 1.0,
                       rchk_strip(off(j) + jb, right, j + 1, nb_),
                       KernelClass::Blas3Skinny);
                 },
                 update);
    }
  }
}

void LuRun::dag_sweep(runtime::TaskGraph& g) {
  // End sweep over the finished factor (see final_sweep). Each verify
  // depends only on its block's last writer, so retired columns are
  // swept while the factorization tail still runs.
  for (int k = 0; k < nb_; ++k)
    for (int i = k; i < nb_; ++i)
      dag_verify(g, i, k, fault::Op::Potf2, -1, Sums::Columns);
  for (int k = 0; k < nb_; ++k)
    for (int i = 0; i < k; ++i)
      dag_verify(g, i, k, fault::Op::Trsm, -1, Sums::Rows);
}

}  // namespace

CholeskyResult lu(Machine& machine, Matrix<double>* a, int n,
                  const LuOptions& options, fault::Injector* injector) {
  LuRun run(machine, a, n, options, injector);
  return run.execute();
}

}  // namespace ftla::abft
