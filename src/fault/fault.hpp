// Fault model and injection bookkeeping (paper §III, §VII-B).
//
// Three fault types are modeled, extending the paper's taxonomy:
//   * Computing errors ("1+1=3"): a kernel writes one wrong element into
//     its output block. Injected immediately after the chosen operation.
//   * Storage errors (bit flips at rest): one element of a block already
//     resident in device memory is corrupted *between its last
//     verification and its next read* — the window classic Online-ABFT
//     does not protect. Injected immediately before the chosen operation
//     reads the block.
//   * Transfer errors: corruption on the PCIe path during an H2D/D2H
//     copy. The data leaves one side intact and arrives wrong, so
//     device-side verification of the source cannot see it; it lands
//     via sim::Machine's transfer hook (see machine.hpp).
//
// Faults are specified at program points (outer iteration, operation,
// block; copy ordinal for transfer faults), not at wall-clock times:
// injection is deterministic and reproducible, and the program-point
// formulation is exactly how the paper describes its experiments. A
// stochastic arrival process (process.hpp) can be attached on top; it
// samples arrival *times* and converts them into concrete injections at
// the first matching hook polled after each arrival.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/event_sink.hpp"

namespace ftla::fault {

enum class FaultType { Computing, Storage, Transfer };

/// The four operations of one outer iteration of blocked Cholesky.
enum class Op { Syrk, Gemm, Potf2, Trsm };

[[nodiscard]] const char* to_string(FaultType t);
[[nodiscard]] const char* to_string(Op op);

/// One planned fault.
struct FaultSpec {
  FaultType type = FaultType::Computing;
  /// Outer iteration (block column index) at which the fault fires.
  int iteration = 0;
  /// Computing: the op whose freshly written output is corrupted.
  /// Storage: the op that is about to *read* the corrupted block.
  Op op = Op::Gemm;
  /// Target block in block coordinates; -1 lets the driver pick the
  /// first block that matches the (iteration, op) hook.
  int block_row = -1;
  int block_col = -1;
  /// Element inside the target block.
  int elem_row = 0;
  int elem_col = 0;
  /// Computing error: the value written becomes value + magnitude.
  double magnitude = 1.0e4;
  /// Storage error: which bits of the stored double flip (0 = mantissa
  /// LSB … 63 = sign). Multi-bit flips defeat SEC-DED ECC.
  std::vector<int> bits = {52};
  /// Inject into the block's checksum row instead of the block itself
  /// (ABFT must recognize and repair corrupted checksums too).
  bool target_checksum = false;
  /// Transfer faults only: ordinal of the numeric copy to corrupt
  /// (sim::Machine counts H2D/D2H copies); -1 everywhere else. Replaying
  /// a recorded transfer fault strikes the same copy deterministically.
  std::int64_t transfer_index = -1;
};

/// What actually happened when a fault fired.
struct InjectionRecord {
  FaultSpec spec;
  double old_value = 0.0;
  double new_value = 0.0;
  int global_row = -1;  ///< element coordinates in the full matrix
  int global_col = -1;
  /// Stable injection id (index into records()); links this injection to
  /// the detection/correction telemetry events that reference it.
  std::int64_t id = -1;
  /// Virtual time at injection (0 when no clock is attached).
  double inject_time = 0.0;
  /// Virtual time the detecting verification flagged it; < 0 while the
  /// corruption is still latent. detect_time - inject_time is the
  /// detection latency Enhanced Online-ABFT exists to bound.
  double detect_time = -1.0;

  [[nodiscard]] bool detected() const noexcept { return detect_time >= 0.0; }
  [[nodiscard]] double detection_latency() const noexcept {
    return detected() ? detect_time - inject_time : -1.0;
  }
};

/// SEC-DED ECC as deployed on Tesla-class GPUs: corrects any single-bit
/// error in a protected word, detects-but-cannot-correct double-bit
/// errors, and misses wider patterns. The paper's storage faults use
/// multi-bit flips precisely because ECC already covers the 1-bit case.
struct EccModel {
  bool enabled = false;

  /// True when ECC silently repairs the flip (fault never lands).
  [[nodiscard]] bool corrects(const std::vector<int>& bits) const {
    return enabled && bits.size() <= 1;
  }
};

class FaultProcess;

/// Hands out planned faults to the driver's injection hooks and records
/// what fired so tests can assert every fault was detected/corrected.
class Injector {
 public:
  Injector() = default;
  explicit Injector(std::vector<FaultSpec> plan, EccModel ecc = {});

  /// Called by the driver at a hook point; pops and returns every
  /// not-yet-fired spec matching (type, op, iteration). Faults that ECC
  /// corrects are consumed but reported in `ecc_absorbed_count`. When a
  /// FaultProcess and a clock are attached, arrivals of `type` due at
  /// the current virtual time are synthesized into concrete specs at
  /// this program point and returned alongside the planned ones.
  std::vector<FaultSpec> take(FaultType type, Op op, int iteration);

  /// Called by sim::Machine's transfer hook for copy ordinal `seq`
  /// ending at virtual time `now`. Pops planned Transfer specs whose
  /// transfer_index matches `seq`; when `process_eligible` (the driver
  /// armed this copy for stochastic faults), due Transfer arrivals from
  /// the attached process are also converted, stamped with
  /// transfer_index = seq. Element/bit choice for process arrivals is
  /// left to the caller (it knows the copy's shape).
  std::vector<FaultSpec> take_transfer(std::int64_t seq, double now,
                                       bool process_eligible);

  /// Called by the drivers inside checkpoint/rollback windows, where no
  /// kernel hook runs but resident data is still exposed. Converts due
  /// *storage* arrivals from the attached process into strikes at
  /// (op, iteration); planned specs are never matched here (they fire
  /// at their declared kernel hooks only, preserving replay semantics).
  std::vector<FaultSpec> poll_window(Op op, int iteration);

  /// Attaches a stochastic arrival process (not owned; nullptr
  /// detaches). Requires a clock for arrivals to be converted.
  void attach_process(FaultProcess* process) { process_ = process; }

  /// Driver reports the concrete effect of a fired fault. Returns the
  /// injection id; emits a FaultInjected telemetry event when an event
  /// sink is attached.
  std::int64_t record(const FaultSpec& spec, double old_value,
                      double new_value, int global_row, int global_col);

  /// Driver reports that the verification running at virtual time `time`
  /// caught injection `id`. First report wins; later calls are no-ops.
  void mark_detected(std::int64_t id, double time);

  /// Observability wiring (both optional, not owned). The clock supplies
  /// virtual time for injection stamps — drivers attach the machine's
  /// host clock.
  void set_event_sink(obs::EventSink* sink) { sink_ = sink; }
  void set_clock(std::function<double()> clock) {
    clock_ = std::move(clock);
  }

  [[nodiscard]] const std::vector<InjectionRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] int detected_count() const noexcept {
    int n = 0;
    for (const auto& r : records_) n += r.detected() ? 1 : 0;
    return n;
  }
  [[nodiscard]] int fired_count() const noexcept {
    return static_cast<int>(records_.size());
  }
  [[nodiscard]] int ecc_absorbed_count() const noexcept {
    return ecc_absorbed_;
  }
  [[nodiscard]] int pending_count() const noexcept {
    return static_cast<int>(plan_.size());
  }
  [[nodiscard]] const EccModel& ecc() const noexcept { return ecc_; }

 private:
  std::vector<FaultSpec> plan_;
  std::vector<InjectionRecord> records_;
  EccModel ecc_;
  int ecc_absorbed_ = 0;
  obs::EventSink* sink_ = nullptr;
  std::function<double()> clock_;
  FaultProcess* process_ = nullptr;
};

/// Strikes the transfer faults `specs` (from Injector::take_transfer)
/// into a landed copy: column-major `data`, rows x cols with leading
/// dimension `ld`, whose destination starts `dev_off` doubles into a
/// device buffer (-1 for host destinations). A planned replay clamps
/// its element into the copy; a process skeleton (negative elem_row)
/// draws the element from `rng` and its bits from `process` ({47, 52}
/// without one). Each strike flips the landed bits and is recorded with
/// `inj`, carrying global coordinates only for full-matrix copies
/// (ld == n). Returns the number of strikes.
int strike_transfer(Injector& inj, const std::vector<FaultSpec>& specs,
                    double* data, int rows, int cols, int ld,
                    std::int64_t dev_off, int n, Rng& rng,
                    FaultProcess* process);

/// Builders for the paper's two experiment scenarios on an
/// (nblocks x nblocks)-block matrix.
/// One computing error in the GEMM output of iteration `iter`.
FaultSpec computing_error_at(int iter, int nblocks, Rng& rng);
/// One multi-bit storage error in a decomposed panel block that SYRK or
/// GEMM of iteration `iter` is about to read.
FaultSpec storage_error_at(int iter, int nblocks, Rng& rng);

/// A randomized plan of exactly `count` faults spread over the
/// factorization, at most one per (iteration, op, type, block) hook.
/// Sampling resumes after deduplication until `count` distinct hooks are
/// hit, so campaign fault budgets are honest; if the hook grid is too
/// small to host `count` distinct faults the plan saturates and the
/// (smaller) actual size is the returned vector's size.
std::vector<FaultSpec> random_plan(int count, int nblocks,
                                   std::uint64_t seed,
                                   std::optional<FaultType> only_type = {});

// ----- device-level faults (fleet model, docs/fleet.md) --------------

/// Machine-level failure modes, orthogonal to the element-level
/// taxonomy above: they strike a whole device, not a block.
enum class DeviceFaultKind {
  /// The device vanishes at a virtual instant; every subsequent
  /// operation issued to it throws sim::DeviceLostError.
  FailStop,
  /// Transient hang: operations issued inside [time, time + duration)
  /// are held until the window closes, then proceed normally.
  Stall,
  /// The device keeps computing but its soft-error arrival rate is
  /// multiplied by rate_multiplier (per-device stream in FaultProcess).
  Degrade,
};
[[nodiscard]] const char* to_string(DeviceFaultKind k);

/// One planned device-level fault, addressed by virtual time — unlike
/// FaultSpec's program points, a device does not fail at an iteration
/// of someone's loop; it fails at an instant.
struct DeviceFaultSpec {
  DeviceFaultKind kind = DeviceFaultKind::FailStop;
  int device = 0;
  double time = 0.0;
  /// Stall only: width of the hang window in virtual seconds.
  double duration = 0.0;
  /// Degrade only: soft-error rate multiplier (> 1).
  double rate_multiplier = 8.0;
};

/// Shape of a randomized device-fault plan for one fleet scenario.
struct DeviceFaultPlanConfig {
  int devices = 2;
  int loss_count = 1;
  int stall_count = 0;
  int degrade_count = 0;
  /// Fault-free fleet makespan of the workload; fail-stop and stall
  /// instants land in [0.15, 0.85] of it so losses strike mid-run.
  double horizon_s = 1.0;
  /// Stall width as a fraction of the horizon.
  double stall_duration_frac = 0.05;
  double degrade_multiplier = 8.0;
  std::uint64_t seed = 1;
};

/// Deterministically samples a device-fault plan: distinct devices for
/// losses (capped at devices - 1 so the fleet is never annihilated by
/// plan), times sorted ascending with device id as tie-break.
std::vector<DeviceFaultSpec> sample_device_faults(
    const DeviceFaultPlanConfig& cfg);

}  // namespace ftla::fault
