// Shared skeleton of the factorization drivers (Cholesky, LU, QR).
//
// Enhanced Online-ABFT is one cycle for every dense factorization here:
// encode checksums, verify each block before an operation reads it,
// correct in place or rerun. Only the algorithm between verifications
// differs. Driver owns the cycle's plumbing once:
//
//   * geometry, stream allocation, upload/download and the encode
//     fan-out/fan-in fences;
//   * the rerun ladder (execute) with its causal-trace pass spans;
//   * verification bookkeeping: the Table-I counters, absorbing an
//     outcome, the bulk verify batch fenced against all prior compute,
//     and the DAG verify task with its scratch-slot cursor;
//   * fault strikes at the injection hooks;
//   * the DAG run: graph build order, sanitizer, executor options.
//
// A concrete driver supplies its algorithm: the bulk and DAG iteration
// bodies, its checksum flavours (how a block is encoded and verified,
// which checksum tiles it owns), its default strike targets and its end
// sweeps. docs/runtime.md ("Driver structure") has the overview.
//
// Internal to src/abft: the public entry points are abft::cholesky,
// abft::lu and abft::qr.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/options.hpp"
#include "abft/telemetry.hpp"
#include "common/matrix.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "runtime/graph.hpp"
#include "sim/device_matrix.hpp"
#include "sim/machine.hpp"

namespace ftla::abft::detail {

/// Block coordinates (block_row, block_col) in the block grid.
using BlockId = std::pair<int, int>;

/// Which checksums a verification recomputes: column sums (two rows per
/// block) or row sums (two columns per block).
enum class Sums { Columns, Rows };

class Driver {
 public:
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;
  virtual ~Driver() = default;

  /// Runs the factorization under the rerun ladder.
  CholeskyResult execute();

 protected:
  /// Which failures the rerun ladder retries.
  enum class Ladder {
    /// NotPositiveDefiniteError and UnrecoverableCorruptionError only,
    /// with labelled rerun reasons and "fail-stop: " / "unrecoverable: "
    /// note prefixes; anything else propagates.
    Typed,
    /// Every ftla::Error, its message serving as reason and note.
    AnyError,
  };

  /// `name` prefixes sanitizer failures; `flops` is the useful work the
  /// gflops rate divides by.
  Driver(sim::Machine& m, Matrix<double>* a, int n, const FactorOptions& opt,
         fault::Injector* injector, Ladder ladder, const char* name,
         double flops);

  // ---- the algorithm a concrete driver supplies ------------------------
  /// Allocates device buffers, then calls create_streams.
  virtual void allocate() = 0;
  /// One attempt: encode, iterate, end sweep (bulk) or the DAG run.
  virtual void run_once();
  virtual void iterate(int j) = 0;
  /// Bulk end sweep over the finished factor (FT runs only).
  virtual void final_sweep() {}
  [[nodiscard]] virtual bool use_dag() const {
    return opt_.runtime == RuntimeMode::Dag;
  }
  virtual void dag_iteration(runtime::TaskGraph& g, int j) = 0;
  /// DAG end sweep, built after the last iteration.
  virtual void dag_sweep(runtime::TaskGraph& /*g*/) {}
  /// Runs after the graph executed, inside the run's transfer arming.
  virtual void after_graph() {}
  /// Restores the device matrix to the pristine input.
  virtual void upload();
  /// Hands the finished factor back to the caller (Numeric mode).
  virtual void download();

  /// Whether block (i, k) carries checksums at all.
  [[nodiscard]] virtual bool carries_checksums(int /*i*/, int /*k*/) const {
    return true;
  }
  /// The checksum tiles of block (i, k), in footprint order.
  [[nodiscard]] virtual std::vector<runtime::TileKey> chk_tiles(
      int i, int k) const = 0;
  /// Launches the encode kernels of block (i, k) on `s`.
  virtual void issue_encode(sim::StreamId s, int i, int k) = 0;
  /// Launches one block verification on `s`: recalculate the `sums`
  /// checksums into the scratch area at offset `pos` (doubles), compare
  /// against the stored ones, correct, report to telemetry, absorb.
  virtual void issue_verify(Sums sums, sim::StreamId s, int bi, int bk,
                            fault::Op attr, std::int64_t pos, int iter) = 0;
  [[nodiscard]] virtual const char* verify_task_name(Sums sums) const = 0;
  /// The stream checksum updates run on; verify batches fence it.
  [[nodiscard]] virtual sim::StreamId chk_stream() const { return s_chk_; }

  /// Block a fault strikes when the spec leaves it unspecified.
  [[nodiscard]] virtual BlockId strike_target(const fault::FaultSpec& spec,
                                              int j) const = 0;
  /// The stored checksum element a checksum-targeted storage fault
  /// strikes, with its global (row, col); nullptr strikes the data.
  virtual double* checksum_cell(const fault::FaultSpec& /*spec*/,
                                int /*bi*/, int /*bk*/, int* /*row*/,
                                int* /*col*/) {
    return nullptr;
  }

  // ---- geometry ---------------------------------------------------------
  [[nodiscard]] int bs(int i) const { return std::min(b_, n_ - i * b_); }
  [[nodiscard]] int off(int i) const { return i * b_; }
  /// Rectangular region of the data matrix in element coordinates.
  [[nodiscard]] sim::DMat data_region(int row, int col, int rows, int cols) {
    return sim::DMat{&d_a_, static_cast<std::int64_t>(col) * n_ + row, rows,
                     cols, n_};
  }
  [[nodiscard]] sim::DMat data_block(int i, int k) {
    return data_region(off(i), off(k), bs(i), bs(k));
  }

  // ---- shared phases ----------------------------------------------------
  /// Builds the whole factorization as one task graph (encode, every
  /// iteration, end sweep) and runs it.
  void run_once_dag();
  /// The compute stream, the checksum stream and the recalc streams
  /// (FT runs), plus an optional transfer lane created after s_chk_.
  void create_streams(bool xfer_lane);
  /// One encode launch per checksum-carrying block, spread round-robin
  /// over the recalc streams and fenced against the upload and against
  /// everything after it.
  void encode();

  // ---- verification -----------------------------------------------------
  /// Bumps the Table-I counter of `attr` (and its metric mirror).
  void count_verified(fault::Op attr, std::size_t blocks);
  /// Folds one verification outcome into the result; uncorrectable
  /// damage throws UnrecoverableCorruptionError(`uncorrectable`).
  void absorb(const VerifyOutcome& out, const char* uncorrectable);
  /// Bulk verification batch: fences all prior compute and checksum
  /// work, fans the blocks out over the recalc streams, and fences all
  /// later work behind them.
  void verify_batch(const std::vector<BlockId>& blocks, fault::Op attr,
                    Sums sums = Sums::Columns);
  /// One DAG verify task for block (bi, bk) in the next scratch slot.
  /// Counters bump at graph-build time, as bulk counts at issue time.
  void dag_verify(runtime::TaskGraph& g, int bi, int bk, fault::Op attr,
                  int iter, Sums sums = Sums::Columns);

  // ---- fault hooks ------------------------------------------------------
  void hook_storage(fault::Op op, int j);
  void hook_computing(fault::Op op, int j);
  /// Applies one fired spec: its block (strike_target defaults), the
  /// element clamped into the block, bit flips (storage) or an added
  /// magnitude (computing), recorded with the injector.
  void strike(const fault::FaultSpec& spec, int j);
  /// A fault hook in the graph: empty footprint, fixed program point.
  void dag_hook(runtime::TaskGraph& g, const char* name, int iter,
                std::function<void()> fn);

  // ---- task-graph tiles -------------------------------------------------
  // Tile namespaces for dependency inference. Drivers number their own
  // checksum (and other) spaces from kTileDriver.
  enum TileSpace : int { kTileData = 0, kTileHost, kTileScratch, kTileDriver };
  [[nodiscard]] static runtime::TileKey dtile(int i, int k) {
    return {kTileData, i, k};
  }
  /// The host staging buffer (one tile, so reuse hazards serialize).
  [[nodiscard]] static runtime::TileKey htile() { return {kTileHost, 0, 0}; }
  [[nodiscard]] static runtime::TileKey stile(int slot) {
    return {kTileScratch, slot, 0};
  }

  // ---- causal tracing ---------------------------------------------------
  /// Roots the driver's "factorize" span at the fixed child slot of
  /// `ctx` (docs/observability.md); without a call, tracing is off.
  void enable_trace(obs::TraceStore* store, const obs::TraceContext& ctx);
  /// Records one span under the job's causal trace (no-op when off).
  void trace_span(obs::SpanId id, obs::SpanId parent, const char* name,
                  const char* kind, double start, double end,
                  const char* status, std::string detail = {});

  sim::Machine& m_;
  Matrix<double>* a_;
  int n_;
  const FactorOptions& opt_;
  fault::Injector* injector_;
  Telemetry tel_;
  /// Outer iteration currently executing; -1 outside the j-loop (encode,
  /// end sweeps) — used only to annotate telemetry events.
  int cur_iter_ = -1;

  int b_ = 0;
  int nb_ = 0;
  bool ft_ = false;
  /// Outer iteration a run starts at (panel-checkpoint resume).
  int resume_from_ = 0;

  sim::DeviceBuffer d_a_;
  sim::DeviceBuffer d_scratch_;
  std::int64_t scratch_capacity_ = 0;  ///< doubles
  Matrix<double> pristine_;            ///< host copy for recovery reruns

  sim::StreamId s_compute_ = 0;
  sim::StreamId s_chk_ = 0;
  sim::StreamId s_xfer_ = 0;
  std::vector<sim::StreamId> s_recalc_;

  obs::TraceStore* trace_ = nullptr;  ///< null = tracing off
  obs::TraceContext trace_ctx_;
  obs::SpanId trace_factorize_ = 0;  ///< the driver's root span id
  obs::SpanId trace_pass_ = 0;       ///< current pass span id

  CholeskyResult result_;

 private:
  void dag_encode(runtime::TaskGraph& g);
  [[nodiscard]] std::vector<sim::StreamId> dag_streams() const;

  Ladder ladder_;
  const char* name_;
  double flops_;
  /// Round-robin scratch-slot cursor for DAG verify tasks (each slot is
  /// 2 * b_ doubles; slot reuse serializes through the slot tile).
  std::int64_t dag_slot_ = 0;
};

}  // namespace ftla::abft::detail
