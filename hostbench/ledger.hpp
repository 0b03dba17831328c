// Measurement plumbing of the host wall-clock benchmark: named metrics,
// order statistics, the result line, and the in-memory span recorder
// of the traced invocation.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs below this many timed ops report no op_s.p90: fewer than ten
/// samples would lie beyond it.
inline constexpr int kMinOpsForP90 = 100;

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The timed phase of one run, as the end-to-end metrics see it.
struct RunTimes {
  std::vector<double> setup_s;  ///< one entry per repeated set-up
  std::vector<double> op_s;     ///< wall seconds of each op
  double virtual_s = 0.0;       ///< summed simulated makespans of the ops
};

/// The end-to-end metrics of a run, in their fixed output order. The
/// p90 is not among them: it exists only for runs of kMinOpsForP90 ops
/// or more, so it is reported by p90_line() instead.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const RunTimes& t);

/// "op_s.p90 <value> s (<n> ops)" when the run has enough ops, else a
/// line saying it is omitted and giving the op count.
[[nodiscard]] std::string p90_line(const std::vector<double>& op_s);

/// The benchmark's last output line: one JSON object with exactly the
/// keys correct, attempted, failed and metrics.
[[nodiscard]] std::string result_json(bool correct, long long attempted,
                                      long long failed,
                                      const std::vector<Metric>& metrics);

/// One recorded span: a public call the benchmark made into a layer.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the recorder's origin
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 for a root
  int op = -1;           ///< op index, -1 outside the timed ops
};

/// Keeps spans in memory for the traced invocation. Not thread-safe:
/// every run is serial.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, int op = -1);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Duration of each span minus the part of it covered by its children.
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// Writes the spans as a JSON array; false on an I/O failure.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing when the recorder is null (the untraced invocation).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, int op = -1)
      : rec_(rec), index_(rec != nullptr ? rec->open(std::move(name), op) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Self time and call count per span name, sorted by name.
struct SelfTime {
  std::string name;
  double self_s = 0.0;
  long long calls = 0;
};
[[nodiscard]] std::vector<SelfTime> self_time_table(const SpanRecorder& rec);

}  // namespace hostbench
