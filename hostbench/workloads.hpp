// The benchmark's workloads. Each run executes a fixed op list that is
// a pure function of (workload, seed, run seconds): the list never
// depends on how fast ops run, so two commits run identical ops and the
// failure count depends only on the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace hostbench {

/// What one op did, as the benchmark's own checks see it.
struct OpOutcome {
  /// An unexpected outcome, counted in `failed`: an oracle reject or
  /// !success, a guarded-variant SDC, a fail-stop with zero faults
  /// fired, or an SDC or dropped fleet job.
  bool unexpected = false;
  /// A fault-free op whose result is missing or wrong: the program is
  /// broken, and the run reports correct=false.
  bool broken = false;
  std::string why;  ///< one line naming the unexpected outcome
  double virtual_s = 0.0;
  // Event counts, summed into the traced run's per-layer ledger.
  long long faults_fired = 0;
  long long faults_detected = 0;
  bool reran = false;
  long long device_losses = 0;
  long long migrations = 0;
  long long retries = 0;
  long long sdc_jobs = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops in this run's list.
  [[nodiscard]] virtual int size() const = 0;
  /// One line naming op i (its inputs), for replay and the self-tests.
  [[nodiscard]] virtual std::string describe(int i) const = 0;
  /// Generates the run's inputs; part of set-up.
  virtual void prepare(SpanRecorder* spans) = 0;
  /// Runs a warm-up op that is the same for every seed; part of set-up.
  virtual OpOutcome warm_up(SpanRecorder* spans) = 0;
  /// Runs op i of the list and checks its output.
  virtual OpOutcome run(int i, SpanRecorder* spans) = 0;
};

/// verified_n1024, campaign_b16_32, fleet_loss, paper_timing.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The workload's op list for this seed and run length, or null for an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      int seconds);

/// Passes a run makes over its op list, each after its own set-up. An
/// op's time is its fastest pass: the shared host slows a plain compute
/// loop to half speed for seconds at a time, and passes some seconds
/// apart rarely all land in such a stretch.
inline constexpr int kPasses = 6;

/// Result of executing a workload's op list.
struct OpLoop {
  RunTimes times;                   ///< op_s holds each op's fastest pass
  std::vector<OpOutcome> outcomes;  ///< first pass, one per op
  long long attempted = 0;          ///< op executions, all passes
  long long failed = 0;             ///< unexpected outcomes, all passes
  bool correct = true;
  double wall_s = 0.0;                ///< the timed passes, set-ups excluded
  std::vector<std::string> failures;  ///< "op <i> <why> | <op>" lines
};

/// Runs kPasses passes over the workload's op list, each after a fresh
/// set-up (op list, inputs, warm-up op) timed into times.setup_s.
[[nodiscard]] OpLoop run_workload(const std::string& name, std::uint64_t seed,
                                  int seconds, SpanRecorder* spans);

/// Runs the op list of `w` once, in list order, folding each op's time
/// into out.times.op_s as a minimum over passes; pass 0 also records the
/// outcomes. The clock never decides what runs. Exceptions count as
/// failed, broken ops.
void time_pass(Workload& w, int pass, SpanRecorder* spans, OpLoop& out);

}  // namespace hostbench
