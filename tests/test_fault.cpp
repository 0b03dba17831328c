// Fault-injection bookkeeping tests: plan matching, ECC absorption,
// scenario builders and randomized plan hygiene.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "fault/process.hpp"

namespace ftla::fault {
namespace {

TEST(Injector, TakeMatchesTypeOpIteration) {
  FaultSpec s;
  s.type = FaultType::Computing;
  s.op = Op::Gemm;
  s.iteration = 3;
  Injector inj({s});
  EXPECT_TRUE(inj.take(FaultType::Computing, Op::Gemm, 2).empty());
  EXPECT_TRUE(inj.take(FaultType::Storage, Op::Gemm, 3).empty());
  EXPECT_TRUE(inj.take(FaultType::Computing, Op::Syrk, 3).empty());
  auto fired = inj.take(FaultType::Computing, Op::Gemm, 3);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(inj.pending_count(), 0);
  // Consumed: does not fire twice (transient fault semantics).
  EXPECT_TRUE(inj.take(FaultType::Computing, Op::Gemm, 3).empty());
}

TEST(Injector, MultipleMatchingSpecsAllFire) {
  FaultSpec a;
  a.type = FaultType::Storage;
  a.op = Op::Syrk;
  a.iteration = 1;
  FaultSpec b = a;
  b.block_col = 0;
  Injector inj({a, b});
  EXPECT_EQ(inj.take(FaultType::Storage, Op::Syrk, 1).size(), 2u);
}

TEST(Injector, RecordsKeepHistory) {
  FaultSpec s;
  Injector inj;
  inj.record(s, 1.0, 2.0, 10, 20);
  ASSERT_EQ(inj.fired_count(), 1);
  EXPECT_EQ(inj.records()[0].old_value, 1.0);
  EXPECT_EQ(inj.records()[0].new_value, 2.0);
  EXPECT_EQ(inj.records()[0].global_row, 10);
  EXPECT_EQ(inj.records()[0].global_col, 20);
}

TEST(StrikeTransfer, PlannedReplayClampsIntoTheCopy) {
  // A 4x3 landed copy (ld 5) of a full-matrix transfer at (row 2,
  // col 1) of an n = 5 matrix. Out-of-range planned coordinates —
  // negative included — clamp into the copy instead of leaving it.
  std::vector<double> buf(15, 1.0);
  FaultSpec s;
  s.type = FaultType::Transfer;
  s.elem_row = 9;
  s.elem_col = -4;
  s.bits = {63};
  Injector inj;
  Rng rng(1);
  EXPECT_EQ(strike_transfer(inj, {s}, buf.data(), 4, 3, 5, 1 * 5 + 2, 5,
                            rng, nullptr),
            1);
  ASSERT_EQ(inj.records().size(), 1u);
  const InjectionRecord& rec = inj.records()[0];
  EXPECT_EQ(buf[3], -1.0);  // (row 3, col 0) of the copy
  EXPECT_EQ(rec.global_row, 2 + 3);
  EXPECT_EQ(rec.global_col, 1 + 0);
  EXPECT_EQ(rec.old_value, 1.0);
  EXPECT_EQ(rec.new_value, -1.0);
}

TEST(StrikeTransfer, SkeletonDrawsItsElementAndBits) {
  std::vector<double> buf(6, 2.0);
  FaultSpec s;
  s.type = FaultType::Transfer;
  s.elem_row = -1;
  s.elem_col = -1;
  s.bits.clear();
  Injector inj;
  Rng rng(3);
  // Host destination: no global coordinates.
  EXPECT_EQ(strike_transfer(inj, {s}, buf.data(), 2, 3, 2, -1, 8, rng,
                            nullptr),
            1);
  const InjectionRecord& rec = inj.records().at(0);
  EXPECT_GE(rec.spec.elem_row, 0);
  EXPECT_LT(rec.spec.elem_row, 2);
  EXPECT_GE(rec.spec.elem_col, 0);
  EXPECT_LT(rec.spec.elem_col, 3);
  EXPECT_EQ(rec.spec.bits, (std::vector<int>{47, 52}));
  EXPECT_EQ(rec.global_row, -1);
  EXPECT_EQ(rec.global_col, -1);
  EXPECT_NE(buf[static_cast<std::size_t>(rec.spec.elem_col) * 2 +
                static_cast<std::size_t>(rec.spec.elem_row)],
            2.0);
  // Nothing to strike: empty specs or an empty copy.
  EXPECT_EQ(strike_transfer(inj, {}, buf.data(), 2, 3, 2, -1, 8, rng,
                            nullptr),
            0);
  EXPECT_EQ(strike_transfer(inj, {s}, buf.data(), 0, 3, 2, -1, 8, rng,
                            nullptr),
            0);
}

TEST(Ecc, CorrectsSingleBitOnly) {
  EccModel on{true};
  EccModel off{false};
  EXPECT_TRUE(on.corrects({5}));
  EXPECT_FALSE(on.corrects({5, 6}));
  EXPECT_FALSE(off.corrects({5}));
}

TEST(Injector, EccAbsorbsSingleBitStorageFaults) {
  FaultSpec s;
  s.type = FaultType::Storage;
  s.op = Op::Gemm;
  s.iteration = 2;
  s.bits = {17};
  Injector inj({s}, EccModel{true});
  EXPECT_TRUE(inj.take(FaultType::Storage, Op::Gemm, 2).empty());
  EXPECT_EQ(inj.ecc_absorbed_count(), 1);
}

TEST(Injector, EccPassesMultiBitStorageFaults) {
  FaultSpec s;
  s.type = FaultType::Storage;
  s.op = Op::Gemm;
  s.iteration = 2;
  s.bits = {17, 44};
  Injector inj({s}, EccModel{true});
  EXPECT_EQ(inj.take(FaultType::Storage, Op::Gemm, 2).size(), 1u);
  EXPECT_EQ(inj.ecc_absorbed_count(), 0);
}

TEST(Injector, EccDoesNotSeeComputingErrors) {
  FaultSpec s;
  s.type = FaultType::Computing;
  s.op = Op::Gemm;
  s.iteration = 0;
  Injector inj({s}, EccModel{true});
  EXPECT_EQ(inj.take(FaultType::Computing, Op::Gemm, 0).size(), 1u);
}

TEST(Builders, ComputingErrorTargetsCurrentColumn) {
  Rng rng(1);
  for (int iter : {0, 3, 7}) {
    auto s = computing_error_at(iter, 8, rng);
    EXPECT_EQ(s.type, FaultType::Computing);
    EXPECT_EQ(s.iteration, iter);
    EXPECT_EQ(s.block_col, iter);
    if (s.op == Op::Gemm) {
      EXPECT_GT(s.block_row, iter);
    }
  }
}

TEST(Builders, LastIterationFallsBackToSyrk) {
  Rng rng(2);
  auto s = computing_error_at(7, 8, rng);
  EXPECT_EQ(s.op, Op::Syrk);
  EXPECT_EQ(s.block_row, 7);
}

TEST(Builders, StorageErrorHitsDecomposedPanel) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int iter = 1 + static_cast<int>(rng.next_below(7));
    auto s = storage_error_at(iter, 8, rng);
    EXPECT_EQ(s.type, FaultType::Storage);
    EXPECT_LT(s.block_col, iter) << "must target the decomposed slate";
    EXPECT_GE(s.bits.size(), 2u) << "must defeat SEC-DED ECC";
    if (s.op == Op::Syrk) {
      EXPECT_EQ(s.block_row, iter);
    } else {
      EXPECT_GT(s.block_row, iter);
    }
  }
}

TEST(RandomPlan, RespectsTypeFilter) {
  auto plan = random_plan(20, 8, 42, FaultType::Computing);
  for (const auto& s : plan) EXPECT_EQ(s.type, FaultType::Computing);
}

TEST(RandomPlan, NoDuplicateHooks) {
  auto plan = random_plan(64, 6, 7);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.size(); ++j) {
      const bool same = plan[i].iteration == plan[j].iteration &&
                        plan[i].op == plan[j].op &&
                        plan[i].type == plan[j].type &&
                        plan[i].block_row == plan[j].block_row &&
                        plan[i].block_col == plan[j].block_col;
      EXPECT_FALSE(same);
    }
  }
}

TEST(RandomPlan, DeterministicForSeed) {
  auto p1 = random_plan(10, 8, 5);
  auto p2 = random_plan(10, 8, 5);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].iteration, p2[i].iteration);
    EXPECT_EQ(p1[i].block_row, p2[i].block_row);
    EXPECT_EQ(p1[i].block_col, p2[i].block_col);
  }
}

TEST(RandomPlan, ReturnsExactlyRequestedCount) {
  // The count is a contract, not a hint: hook-site collisions are
  // resampled, not dropped, so any request the hook grid can hold is
  // met exactly.
  for (int count : {1, 5, 17, 40}) {
    for (std::uint64_t seed : {1ULL, 42ULL, 987654321ULL}) {
      EXPECT_EQ(random_plan(count, 8, seed).size(),
                static_cast<std::size_t>(count))
          << "count=" << count << " seed=" << seed;
    }
  }
}

TEST(RandomPlan, SaturatesGracefullyOnTinyHookGrid) {
  // A request beyond the distinct-hook capacity of a tiny block grid
  // returns a shorter duplicate-free plan instead of spinning or
  // padding with repeats.
  const auto plan = random_plan(500, 2, 9);
  EXPECT_LT(plan.size(), 500u);
  EXPECT_GT(plan.size(), 0u);
  std::set<std::tuple<int, int, int, int, int>> keys;
  for (const auto& s : plan) {
    EXPECT_TRUE(keys.insert({s.iteration, static_cast<int>(s.op),
                             static_cast<int>(s.type), s.block_row,
                             s.block_col})
                    .second);
  }
}

TEST(FaultProcess, DeterministicForSeed) {
  ProcessConfig cfg;
  cfg.mtbf_s = 1.0e-4;
  cfg.seed = 99;
  FaultProcess p1(cfg, 6);
  FaultProcess p2(cfg, 6);
  for (int step = 1; step <= 50; ++step) {
    const double now = 1.0e-4 * step;
    for (FaultType t : {FaultType::Computing, FaultType::Storage,
                        FaultType::Transfer}) {
      const int n1 = p1.drain(t, now);
      const int n2 = p2.drain(t, now);
      ASSERT_EQ(n1, n2) << "type diverged at step " << step;
      // Transfer arrivals are concretized by the machine's copy hook,
      // not synthesize() — drain parity is the whole contract there.
      if (t == FaultType::Transfer) continue;
      for (int i = 0; i < n1; ++i) {
        auto s1 = p1.synthesize(t, Op::Syrk, step);
        auto s2 = p2.synthesize(t, Op::Syrk, step);
        ASSERT_EQ(s1.size(), s2.size());
        for (std::size_t k = 0; k < s1.size(); ++k) {
          EXPECT_EQ(s1[k].block_row, s2[k].block_row);
          EXPECT_EQ(s1[k].block_col, s2[k].block_col);
          EXPECT_EQ(s1[k].elem_row, s2[k].elem_row);
          EXPECT_EQ(s1[k].bits, s2[k].bits);
          EXPECT_EQ(s1[k].magnitude, s2[k].magnitude);
        }
      }
    }
  }
  EXPECT_GT(p1.arrivals_generated(), 0);
}

TEST(FaultProcess, ArrivalRateTracksMtbf) {
  // Over a horizon of H seconds a Poisson process with mean gap m sees
  // ~H/m arrivals; check within generous bounds across seeds.
  ProcessConfig cfg;
  cfg.mtbf_s = 1.0e-3;
  cfg.max_arrivals = 100000;
  const double horizon = 1.0;  // expect ~1000 arrivals
  long long total = 0;
  const int kSeeds = 8;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    cfg.seed = seed;
    FaultProcess p(cfg, 6);
    for (FaultType t : {FaultType::Computing, FaultType::Storage,
                        FaultType::Transfer}) {
      p.drain(t, horizon);
    }
    total += p.arrivals_generated();
  }
  const double mean = static_cast<double>(total) / kSeeds;
  EXPECT_GT(mean, 850.0);
  EXPECT_LT(mean, 1150.0);
}

TEST(FaultProcess, MaxArrivalsBoundsStorms) {
  ProcessConfig cfg;
  cfg.mtbf_s = 1.0e-9;  // pathological rate
  cfg.seed = 3;
  cfg.max_arrivals = 16;
  FaultProcess p(cfg, 4);
  int drained = 0;
  for (FaultType t : {FaultType::Computing, FaultType::Storage,
                      FaultType::Transfer}) {
    drained += p.drain(t, 10.0);
  }
  EXPECT_LE(drained, 16);
  EXPECT_LE(p.arrivals_generated(), 16);
}

TEST(FaultProcess, StormCapIsPerDeviceNotPerRun) {
  // Regression (ISSUE 7 satellite): the cap used to be a single per-run
  // budget, so one noisy device could exhaust it and silently starve
  // injection on its healthy fleet siblings. Drain device 0 to the cap,
  // then device 1 must still generate its own full storm.
  ProcessConfig cfg;
  cfg.mtbf_s = 1.0e-9;  // pathological rate: every drain hits the cap
  cfg.seed = 3;
  cfg.max_arrivals = 16;
  cfg.devices = 2;
  FaultProcess p(cfg, 4);

  p.set_active_device(0);
  for (FaultType t : {FaultType::Computing, FaultType::Storage,
                      FaultType::Transfer}) {
    p.drain(t, 10.0);
  }
  EXPECT_EQ(p.arrivals_generated(0), 16);

  p.set_active_device(1);
  int drained = 0;
  for (FaultType t : {FaultType::Computing, FaultType::Storage,
                      FaultType::Transfer}) {
    drained += p.drain(t, 10.0);
  }
  EXPECT_EQ(drained, 16) << "device 1's budget was eaten by device 0";
  EXPECT_EQ(p.arrivals_generated(1), 16);
  EXPECT_EQ(p.arrivals_generated(), 32);
}

TEST(FaultProcess, DeviceStreamsAreIndependent) {
  // Device 0's stream is seeded exactly like the single-device process
  // (bit-compatibility with every pre-fleet test); sibling devices see
  // different, independent arrival sequences.
  ProcessConfig cfg;
  cfg.mtbf_s = 1.0e-4;
  cfg.seed = 99;
  cfg.max_arrivals = 1000;

  FaultProcess single(cfg, 6);
  ProcessConfig fleet_cfg = cfg;
  fleet_cfg.devices = 3;
  FaultProcess fleet(fleet_cfg, 6);

  int single_total = 0;
  int fleet_dev0_total = 0;
  for (int step = 1; step <= 20; ++step) {
    const double now = 1.0e-4 * step;
    for (FaultType t : {FaultType::Computing, FaultType::Storage,
                        FaultType::Transfer}) {
      single_total += single.drain(t, now);
      fleet.set_active_device(0);
      fleet_dev0_total += fleet.drain(t, now);
      fleet.set_active_device(1);
      fleet.drain(t, now);
    }
  }
  EXPECT_EQ(fleet_dev0_total, single_total);
  EXPECT_GT(fleet.arrivals_generated(1), 0);
}

TEST(FaultProcess, RateMultiplierAcceleratesOneDeviceOnly) {
  ProcessConfig cfg;
  cfg.mtbf_s = 1.0e-3;
  cfg.seed = 5;
  cfg.max_arrivals = 100000;
  cfg.devices = 2;
  FaultProcess p(cfg, 6);
  p.set_rate_multiplier(1, 8.0);
  for (int d = 0; d < 2; ++d) {
    p.set_active_device(d);
    for (FaultType t : {FaultType::Computing, FaultType::Storage,
                        FaultType::Transfer}) {
      p.drain(t, 1.0);
    }
  }
  // Device 1 runs degraded hardware: ~8x the arrivals of device 0 over
  // the same horizon (generous bounds — it is still a Poisson draw).
  EXPECT_GT(p.arrivals_generated(1),
            4 * std::max(1, p.arrivals_generated(0)));
}

TEST(FaultProcess, StorageBitsNeverManufactureNanInf) {
  ProcessConfig cfg;
  cfg.seed = 11;
  FaultProcess p(cfg, 6);
  for (int i = 0; i < 2000; ++i) {
    for (int b : p.sample_bits()) {
      EXPECT_GE(b, 8);
      EXPECT_LE(b, 61);
    }
  }
}

TEST(DeviceFaultPlan, LossesLandMidRunOnDistinctDevices) {
  DeviceFaultPlanConfig cfg;
  cfg.devices = 4;
  cfg.loss_count = 5;  // asked for more than survivable
  cfg.stall_count = 2;
  cfg.degrade_count = 1;
  cfg.horizon_s = 2.0;
  cfg.seed = 77;
  const std::vector<DeviceFaultSpec> plan = sample_device_faults(cfg);

  std::set<int> lost;
  for (const auto& s : plan) {
    EXPECT_GE(s.device, 0);
    EXPECT_LT(s.device, cfg.devices);
    if (s.kind == DeviceFaultKind::FailStop) {
      EXPECT_TRUE(lost.insert(s.device).second)
          << "two losses on device " << s.device;
      EXPECT_GE(s.time, 0.15 * cfg.horizon_s);
      EXPECT_LE(s.time, 0.85 * cfg.horizon_s);
    } else if (s.kind == DeviceFaultKind::Stall) {
      EXPECT_GT(s.duration, 0.0);
      EXPECT_GE(s.time, 0.15 * cfg.horizon_s);
    } else {
      EXPECT_GT(s.rate_multiplier, 1.0);
    }
  }
  // At least one device must survive, whatever was requested.
  EXPECT_LE(static_cast<int>(lost.size()), cfg.devices - 1);
  EXPECT_EQ(static_cast<int>(lost.size()), 3);

  // Deterministic for the seed.
  const std::vector<DeviceFaultSpec> again = sample_device_faults(cfg);
  ASSERT_EQ(plan.size(), again.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].device, again[i].device);
    EXPECT_EQ(plan[i].time, again[i].time);
  }
}

TEST(Strings, EnumNames) {
  EXPECT_STREQ(to_string(FaultType::Computing), "computing");
  EXPECT_STREQ(to_string(FaultType::Storage), "storage");
  EXPECT_STREQ(to_string(Op::Potf2), "potf2");
  EXPECT_STREQ(to_string(Op::Trsm), "trsm");
}

}  // namespace
}  // namespace ftla::fault
