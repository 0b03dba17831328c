#include "fault/fault.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "common/fp.hpp"
#include "fault/process.hpp"

namespace ftla::fault {

const char* to_string(FaultType t) {
  switch (t) {
    case FaultType::Computing: return "computing";
    case FaultType::Storage: return "storage";
    case FaultType::Transfer: return "transfer";
  }
  return "?";
}

const char* to_string(Op op) {
  switch (op) {
    case Op::Syrk: return "syrk";
    case Op::Gemm: return "gemm";
    case Op::Potf2: return "potf2";
    case Op::Trsm: return "trsm";
  }
  return "?";
}

Injector::Injector(std::vector<FaultSpec> plan, EccModel ecc)
    : plan_(std::move(plan)), ecc_(ecc) {}

std::vector<FaultSpec> Injector::take(FaultType type, Op op, int iteration) {
  std::vector<FaultSpec> fired;
  auto it = plan_.begin();
  while (it != plan_.end()) {
    if (it->type == type && it->op == op && it->iteration == iteration) {
      // Storage faults pass through the ECC model first; computing
      // errors are logic faults ECC cannot see.
      if (type == FaultType::Storage && ecc_.corrects(it->bits)) {
        ++ecc_absorbed_;
      } else {
        fired.push_back(*it);
      }
      it = plan_.erase(it);
    } else {
      ++it;
    }
  }
  if (process_ != nullptr && clock_ &&
      (type == FaultType::Storage || type == FaultType::Computing)) {
    const int due = process_->drain(type, clock_());
    for (int i = 0; i < due; ++i) {
      for (FaultSpec s : process_->synthesize(type, op, iteration)) {
        if (type == FaultType::Storage && ecc_.corrects(s.bits)) {
          ++ecc_absorbed_;
        } else {
          fired.push_back(s);
        }
      }
    }
  }
  return fired;
}

std::vector<FaultSpec> Injector::take_transfer(std::int64_t seq, double now,
                                               bool process_eligible) {
  std::vector<FaultSpec> fired;
  auto it = plan_.begin();
  while (it != plan_.end()) {
    if (it->type == FaultType::Transfer && it->transfer_index == seq) {
      fired.push_back(*it);
      it = plan_.erase(it);
    } else {
      ++it;
    }
  }
  if (process_eligible && process_ != nullptr) {
    const int due = process_->drain(FaultType::Transfer, now);
    for (int i = 0; i < due; ++i) {
      FaultSpec s;
      s.type = FaultType::Transfer;
      s.transfer_index = seq;
      // Element and bits are chosen by the caller, which knows the
      // shape of the in-flight copy.
      s.elem_row = -1;
      s.elem_col = -1;
      s.bits.clear();
      fired.push_back(s);
    }
  }
  return fired;
}

int strike_transfer(Injector& inj, const std::vector<FaultSpec>& specs,
                    double* data, int rows, int cols, int ld,
                    std::int64_t dev_off, int n, Rng& rng,
                    FaultProcess* process) {
  if (specs.empty() || data == nullptr || rows <= 0 || cols <= 0) return 0;
  int struck = 0;
  for (FaultSpec spec : specs) {
    int r = 0;
    int c = 0;
    if (spec.elem_row >= 0) {  // planned replay: clamp to this copy
      r = std::min(spec.elem_row, rows - 1);
      c = std::clamp(spec.elem_col, 0, cols - 1);
    } else {  // fresh arrival: pick the struck element now
      r = rng.uniform_int(0, rows - 1);
      c = rng.uniform_int(0, cols - 1);
      spec.elem_row = r;
      spec.elem_col = c;
      spec.bits = process != nullptr ? process->sample_bits()
                                     : std::vector<int>{47, 52};
    }
    double* p = data + static_cast<std::int64_t>(c) * ld + r;
    const double old_value = *p;
    double v = old_value;
    for (int b : spec.bits) v = flip_bit(v, b);
    *p = v;
    // Global coordinates are only meaningful for full-matrix device
    // copies (ld == n); checksum-strip and scratch copies record -1.
    int grow = -1;
    int gcol = -1;
    if (dev_off >= 0 && ld == n) {
      grow = static_cast<int>(dev_off % n) + r;
      gcol = static_cast<int>(dev_off / n) + c;
    }
    inj.record(spec, old_value, v, grow, gcol);
    ++struck;
  }
  return struck;
}

std::vector<FaultSpec> Injector::poll_window(Op op, int iteration) {
  std::vector<FaultSpec> fired;
  if (process_ == nullptr || !clock_) return fired;
  const int due = process_->drain(FaultType::Storage, clock_());
  for (int i = 0; i < due; ++i) {
    for (FaultSpec s : process_->synthesize(FaultType::Storage, op,
                                            iteration)) {
      if (ecc_.corrects(s.bits)) {
        ++ecc_absorbed_;
      } else {
        fired.push_back(s);
      }
    }
  }
  return fired;
}

std::int64_t Injector::record(const FaultSpec& spec, double old_value,
                              double new_value, int global_row,
                              int global_col) {
  InjectionRecord r;
  r.spec = spec;
  r.old_value = old_value;
  r.new_value = new_value;
  r.global_row = global_row;
  r.global_col = global_col;
  r.id = static_cast<std::int64_t>(records_.size());
  r.inject_time = clock_ ? clock_() : 0.0;
  records_.push_back(r);
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::FaultInjected;
    e.time = r.inject_time;
    e.end = r.inject_time;
    e.name = std::string("fault:") + to_string(spec.type);
    e.op = to_string(spec.op);
    e.iteration = spec.iteration;
    e.block_row = spec.block_row;
    e.block_col = spec.block_col;
    e.row = global_row;
    e.col = global_col;
    e.correlation = r.id;
    e.value = old_value;
    e.value2 = new_value;
    if (spec.target_checksum) e.detail = "target=checksum";
    sink_->post(e);
  }
  return r.id;
}

void Injector::mark_detected(std::int64_t id, double time) {
  if (id < 0 || id >= static_cast<std::int64_t>(records_.size())) return;
  auto& r = records_[static_cast<std::size_t>(id)];
  if (!r.detected()) r.detect_time = time;
}

FaultSpec computing_error_at(int iter, int nblocks, Rng& rng) {
  FTLA_CHECK(iter >= 0 && iter < nblocks);
  FaultSpec s;
  s.type = FaultType::Computing;
  s.iteration = iter;
  // The GEMM panel update exists only while there are blocks below the
  // diagonal; fall back to the SYRK diagonal update on the last column.
  s.op = iter + 1 < nblocks ? Op::Gemm : Op::Syrk;
  s.block_col = iter;
  s.block_row =
      s.op == Op::Gemm ? rng.uniform_int(iter + 1, nblocks - 1) : iter;
  s.magnitude = rng.uniform(1.0e3, 1.0e5);
  return s;
}

FaultSpec storage_error_at(int iter, int nblocks, Rng& rng) {
  FTLA_CHECK(iter >= 1 && iter < nblocks);
  FaultSpec s;
  s.type = FaultType::Storage;
  s.iteration = iter;
  // Corrupt an already-decomposed panel block that this iteration's
  // SYRK/GEMM reads — the window classic Online-ABFT leaves unprotected.
  s.op = rng.next_double() < 0.5 ? Op::Syrk : Op::Gemm;
  s.block_col = rng.uniform_int(0, iter - 1);
  s.block_row =
      s.op == Op::Syrk ? iter
                       : (iter + 1 < nblocks ? rng.uniform_int(iter + 1, nblocks - 1)
                                             : iter);
  if (s.op == Op::Gemm && s.block_row == iter) s.op = Op::Syrk;
  // Two mantissa bits + one exponent bit: multi-bit, so SEC-DED ECC
  // cannot repair it.
  s.bits = {20, 44, 54};
  return s;
}

std::vector<FaultSpec> random_plan(int count, int nblocks,
                                   std::uint64_t seed,
                                   std::optional<FaultType> only_type) {
  FTLA_CHECK(count >= 0 && nblocks >= 2);
  Rng rng(seed);
  std::vector<FaultSpec> plan;
  plan.reserve(count);
  // At most one fault per (iteration, op, type, block) hook so that
  // per-column correctability (one error per block column) holds.
  // Collisions are resampled rather than dropped, so the plan really
  // contains `count` faults; a bounded attempt budget covers the case
  // where the hook grid is smaller than the request.
  std::set<std::tuple<int, int, int, int, int>> used;
  const int max_attempts = 64 * std::max(count, 1);
  int attempts = 0;
  while (static_cast<int>(plan.size()) < count && attempts++ < max_attempts) {
    const bool computing =
        only_type ? *only_type == FaultType::Computing
                  : rng.next_double() < 0.5;
    FaultSpec s;
    if (computing) {
      s = computing_error_at(rng.uniform_int(0, nblocks - 1), nblocks, rng);
    } else {
      s = storage_error_at(rng.uniform_int(1, nblocks - 1), nblocks, rng);
    }
    const auto key = std::make_tuple(s.iteration, static_cast<int>(s.op),
                                     static_cast<int>(s.type), s.block_row,
                                     s.block_col);
    if (used.insert(key).second) plan.push_back(s);
  }
  std::stable_sort(plan.begin(), plan.end(), [](const FaultSpec& a,
                                                const FaultSpec& b) {
    return std::tie(a.iteration, a.op, a.type, a.block_row, a.block_col) <
           std::tie(b.iteration, b.op, b.type, b.block_row, b.block_col);
  });
  return plan;
}

const char* to_string(DeviceFaultKind k) {
  switch (k) {
    case DeviceFaultKind::FailStop:
      return "fail_stop";
    case DeviceFaultKind::Stall:
      return "stall";
    case DeviceFaultKind::Degrade:
      return "degrade";
  }
  return "?";
}

std::vector<DeviceFaultSpec> sample_device_faults(
    const DeviceFaultPlanConfig& cfg) {
  FTLA_CHECK(cfg.devices >= 1);
  FTLA_CHECK(cfg.horizon_s > 0.0);
  Rng rng(cfg.seed ^ 0x5851f42d4c957f2dULL);
  std::vector<DeviceFaultSpec> plan;

  // Losses strike distinct devices, and at least one device survives by
  // plan (a fully annihilated fleet certifies nothing: every job would
  // trivially fail-stop).
  const int losses = std::min(cfg.loss_count, cfg.devices - 1);
  std::vector<char> lost(static_cast<std::size_t>(cfg.devices), 0);
  for (int i = 0; i < losses; ++i) {
    int d = rng.uniform_int(0, cfg.devices - 1);
    while (lost[static_cast<std::size_t>(d)] != 0) d = (d + 1) % cfg.devices;
    lost[static_cast<std::size_t>(d)] = 1;
    DeviceFaultSpec s;
    s.kind = DeviceFaultKind::FailStop;
    s.device = d;
    s.time = rng.uniform(0.15, 0.85) * cfg.horizon_s;
    plan.push_back(s);
  }
  for (int i = 0; i < cfg.stall_count; ++i) {
    DeviceFaultSpec s;
    s.kind = DeviceFaultKind::Stall;
    s.device = rng.uniform_int(0, cfg.devices - 1);
    s.time = rng.uniform(0.15, 0.85) * cfg.horizon_s;
    s.duration = cfg.stall_duration_frac * cfg.horizon_s;
    plan.push_back(s);
  }
  for (int i = 0; i < cfg.degrade_count; ++i) {
    DeviceFaultSpec s;
    s.kind = DeviceFaultKind::Degrade;
    s.device = rng.uniform_int(0, cfg.devices - 1);
    s.time = 0.0;  // degradation is in effect from job admission
    s.rate_multiplier = cfg.degrade_multiplier;
    plan.push_back(s);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const DeviceFaultSpec& a, const DeviceFaultSpec& b) {
                     return std::tie(a.time, a.device) <
                            std::tie(b.time, b.device);
                   });
  return plan;
}

}  // namespace ftla::fault
