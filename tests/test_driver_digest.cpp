// Sameness pins for the factorization drivers.
//
// Every case below runs one Cholesky, LU or QR factorization in Numeric
// mode and folds everything the run makes observable into one 64-bit
// FNV-1a digest: the factor's bits, tau's bits, the Table-I counters,
// detection/correction/repair counts, reruns and rollbacks, panel
// checkpoint resume/bytes, the note string, the bits of the virtual
// seconds, every fired injection record and the full telemetry event
// log. The expected table was recorded once and is never re-recorded
// by a refactor: a changed digest means changed behaviour. On any
// mismatch the test prints the complete actual table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "sim/profile.hpp"
#include "test_util.hpp"

namespace ftla::abft {
namespace {

using fault::FaultSpec;
using fault::FaultType;
using fault::Injector;
using fault::Op;

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    u64(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

enum class Fault { None, Storage, Computing, Checksum, Double, Late };

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::None: return "clean";
    case Fault::Storage: return "storage";
    case Fault::Computing: return "computing";
    case Fault::Checksum: return "checksum";
    case Fault::Double: return "double";
    case Fault::Late: return "late";
  }
  return "?";
}

constexpr int kN = 192;
constexpr int kBlock = 32;

/// Cholesky plans target blocks the default rule resolves (storage,
/// computing) and an explicit checksum row; "double" puts two strikes
/// in one block column, which no single checksum pair can correct;
/// "late" strikes after a panel-checkpoint resume point.
std::vector<FaultSpec> cholesky_plan(Fault f) {
  FaultSpec s;
  switch (f) {
    case Fault::None: return {};
    case Fault::Late:
      s.type = FaultType::Storage;
      s.op = Op::Syrk;
      s.iteration = 4;
      s.elem_row = 1;
      s.elem_col = 30;
      return {s};
    case Fault::Storage:
      s.type = FaultType::Storage;
      s.op = Op::Syrk;
      s.iteration = 2;
      s.elem_row = 3;
      s.elem_col = 5;
      s.bits = {52, 61};
      return {s};
    case Fault::Computing:
      s.type = FaultType::Computing;
      s.op = Op::Gemm;
      s.iteration = 1;
      s.elem_row = 7;
      s.elem_col = 2;
      return {s};
    case Fault::Checksum:
      s.type = FaultType::Storage;
      s.op = Op::Gemm;
      s.iteration = 2;
      s.block_row = 3;
      s.block_col = 1;
      s.elem_row = 1;
      s.elem_col = 4;
      s.target_checksum = true;
      return {s};
    case Fault::Double: {
      s.type = FaultType::Storage;
      s.op = Op::Gemm;
      s.iteration = 2;
      s.block_row = 3;
      s.block_col = 1;
      s.elem_row = 2;
      s.elem_col = 6;
      FaultSpec t = s;
      t.elem_row = 9;
      return {s, t};
    }
  }
  return {};
}

/// LU/QR plans: default-target strikes at the panel and trailing hooks.
std::vector<FaultSpec> lu_qr_plan(Fault f) {
  FaultSpec s;
  switch (f) {
    case Fault::None: return {};
    case Fault::Storage:
      s.type = FaultType::Storage;
      s.op = Op::Gemm;
      s.iteration = 1;
      s.elem_row = 4;
      s.elem_col = 11;
      s.bits = {52, 58};
      return {s};
    case Fault::Computing:
      s.type = FaultType::Computing;
      s.op = Op::Trsm;
      s.iteration = 0;
      s.elem_row = 6;
      s.elem_col = 3;
      return {s};
    case Fault::Checksum:
    case Fault::Double:
    case Fault::Late: {
      s.type = FaultType::Storage;
      s.op = Op::Potf2;
      s.iteration = 1;
      s.block_row = 2;
      s.block_col = 1;
      s.elem_row = 2;
      s.elem_col = 6;
      FaultSpec t = s;
      t.elem_row = 9;
      return {s, t};
    }
  }
  return {};
}

/// Folds one finished run into a digest.
std::uint64_t digest(const CholeskyResult& r, const Matrix<double>& a,
                     const std::vector<double>* tau, const Injector& inj,
                     const obs::RingBufferSink& sink) {
  Fnv h;
  h.u64(r.success ? 1 : 0);
  h.f64(r.seconds);
  h.f64(r.gflops);
  h.i64(r.errors_detected);
  h.i64(r.errors_corrected);
  h.i64(r.checksum_repairs);
  h.i64(r.reruns);
  h.i64(r.rollbacks);
  h.i64(r.resumed_iterations);
  h.i64(r.checkpoint_bytes);
  h.u64(r.fail_stop_observed ? 1 : 0);
  h.i64(r.verified.potf2_blocks);
  h.i64(r.verified.trsm_blocks);
  h.i64(r.verified.syrk_blocks);
  h.i64(r.verified.gemm_blocks);
  h.i64(static_cast<int>(r.chosen_placement));
  h.str(r.note);
  h.bytes(a.data(), sizeof(double) * static_cast<std::size_t>(a.rows()) *
                        static_cast<std::size_t>(a.cols()));
  if (tau != nullptr) {
    h.u64(tau->size());
    for (double t : *tau) h.f64(t);
  }
  h.u64(inj.records().size());
  for (const auto& rec : inj.records()) {
    h.i64(static_cast<int>(rec.spec.type));
    h.i64(static_cast<int>(rec.spec.op));
    h.i64(rec.spec.iteration);
    h.i64(rec.spec.block_row);
    h.i64(rec.spec.block_col);
    h.i64(rec.spec.elem_row);
    h.i64(rec.spec.elem_col);
    h.f64(rec.old_value);
    h.f64(rec.new_value);
    h.i64(rec.global_row);
    h.i64(rec.global_col);
    h.i64(rec.id);
    h.f64(rec.inject_time);
    h.f64(rec.detect_time);
  }
  h.i64(inj.pending_count());
  for (const auto& e : sink.events()) {
    std::ostringstream os;
    obs::event_to_json(e, os);
    h.str(os.str());
  }
  return h.value();
}

struct Wiring {
  obs::RingBufferSink sink{1U << 16};
  obs::MetricsRegistry metrics;
};

template <typename Options>
void wire(Options* o, Wiring* w) {
  o->block_size = kBlock;
  o->event_sink = &w->sink;
  o->metrics = &w->metrics;
}

std::uint64_t run_cholesky(CholeskyOptions o, Fault f,
                           PanelCheckpoint* store = nullptr) {
  Wiring w;
  wire(&o, &w);
  o.panel_checkpoint = store;
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::Numeric);
  Matrix<double> a = test::random_spd(kN, 4242);
  Injector inj(cholesky_plan(f));
  const CholeskyResult r = cholesky(m, &a, kN, o, &inj);
  return digest(r, a, nullptr, inj, w.sink);
}

std::uint64_t run_lu(LuOptions o, Fault f) {
  Wiring w;
  wire(&o, &w);
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::Numeric);
  Matrix<double> a = test::random_spd(kN, 777);
  Injector inj(lu_qr_plan(f));
  const CholeskyResult r = lu(m, &a, kN, o, &inj);
  return digest(r, a, nullptr, inj, w.sink);
}

std::uint64_t run_qr(QrOptions o, Fault f) {
  Wiring w;
  wire(&o, &w);
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::Numeric);
  Matrix<double> a = test::random_matrix(kN, kN, 909);
  std::vector<double> tau;
  Injector inj(lu_qr_plan(f));
  const CholeskyResult r = qr(m, &a, &tau, kN, o, &inj);
  return digest(r, a, &tau, inj, w.sink);
}

/// Every case's actual digest, keyed by a readable case name.
std::map<std::string, std::uint64_t> actual_digests() {
  std::map<std::string, std::uint64_t> out;
  const Variant variants[] = {Variant::NoFt, Variant::Offline,
                              Variant::Online, Variant::EnhancedOnline};
  const UpdatePlacement placements[] = {UpdatePlacement::Blocking,
                                        UpdatePlacement::Gpu,
                                        UpdatePlacement::Cpu};
  const Recovery recoveries[] = {Recovery::Rerun, Recovery::Checkpoint};
  const RuntimeMode runtimes[] = {RuntimeMode::Bulk, RuntimeMode::Dag};
  const Fault faults[] = {Fault::None, Fault::Storage, Fault::Computing,
                          Fault::Checksum};

  for (Variant v : variants) {
    for (UpdatePlacement p : placements) {
      for (Recovery rc : recoveries) {
        for (RuntimeMode rt : runtimes) {
          for (Fault f : faults) {
            CholeskyOptions o;
            o.variant = v;
            o.placement = p;
            o.recovery = rc;
            o.runtime = rt;
            o.checkpoint_interval = 2;
            const std::string name =
                std::string("cholesky/") + to_string(v) + "/" +
                to_string(p) + "/" + to_string(rc) + "/" + to_string(rt) +
                "/" + fault_name(f);
            out[name] = run_cholesky(o, f);
          }
        }
      }
    }
  }

  // Rerun ladder: uncorrectable damage escalates (and, with no rerun
  // budget, gives up with a note); checkpoint recovery rolls back.
  for (Recovery rc : recoveries) {
    for (RuntimeMode rt : runtimes) {
      for (int budget : {0, 2}) {
        CholeskyOptions o;
        o.recovery = rc;
        o.runtime = rt;
        o.placement = UpdatePlacement::Gpu;
        o.checkpoint_interval = 2;
        o.max_reruns = budget;
        out[std::string("cholesky/ladder/") + to_string(rc) + "/" +
            to_string(rt) + "/reruns" + std::to_string(budget)] =
            run_cholesky(o, Fault::Double);
      }
    }
  }

  // Transfer guard: arrival checks and the output-at-rest sweep.
  for (UpdatePlacement p : placements) {
    for (RuntimeMode rt : runtimes) {
      for (Fault f : {Fault::None, Fault::Storage}) {
        CholeskyOptions o;
        o.placement = p;
        o.runtime = rt;
        o.transfer_guard = true;
        out[std::string("cholesky/guard/") + to_string(p) + "/" +
            to_string(rt) + "/" + fault_name(f)] = run_cholesky(o, f);
      }
    }
  }

  // Panel-checkpoint resume: a first run fills the store, a second run
  // resumes from it (a DAG request falls back to bulk here).
  for (RuntimeMode rt : runtimes) {
    for (Fault f : {Fault::None, Fault::Late}) {
      PanelCheckpoint store;
      CholeskyOptions o;
      o.placement = UpdatePlacement::Gpu;
      o.runtime = rt;
      o.checkpoint_interval = 2;
      const std::string base = std::string("cholesky/panel/") +
                               to_string(rt) + "/" + fault_name(f);
      out[base + "/fill"] = run_cholesky(o, Fault::None, &store);
      out[base + "/resume"] = run_cholesky(o, f, &store);
    }
  }

  // Opt 3 (K = 2) skips and recalc-stream fan-out width.
  for (RuntimeMode rt : runtimes) {
    for (Fault f : {Fault::None, Fault::Storage}) {
      const std::string tail = std::string(to_string(rt)) + "/" +
                               fault_name(f);
      CholeskyOptions o;
      o.placement = UpdatePlacement::Gpu;
      o.runtime = rt;
      o.verify_interval = 2;
      out["cholesky/k2/" + tail] = run_cholesky(o, f);
      o.verify_interval = 1;
      o.concurrent_recalc = false;
      out["cholesky/serial-recalc/" + tail] = run_cholesky(o, f);
      o.concurrent_recalc = true;
      o.recalc_streams = 3;
      out["cholesky/recalc3/" + tail] = run_cholesky(o, f);
      LuOptions lo;
      lo.runtime = rt;
      lo.verify_interval = 2;
      out["lu/k2/" + tail] = run_lu(lo, f);
      lo.verify_interval = 1;
      lo.concurrent_recalc = false;
      out["lu/serial-recalc/" + tail] = run_lu(lo, f);
      QrOptions qo;
      qo.runtime = rt;
      qo.verify_interval = 2;
      out["qr/k2/" + tail] = run_qr(qo, f);
      qo.verify_interval = 1;
      qo.recalc_streams = 3;
      out["qr/recalc3/" + tail] = run_qr(qo, f);
    }
  }

  const Fault lu_qr_faults[] = {Fault::None, Fault::Storage,
                                Fault::Computing};
  for (Variant v : {Variant::NoFt, Variant::EnhancedOnline}) {
    for (RuntimeMode rt : runtimes) {
      for (Fault f : lu_qr_faults) {
        const std::string tail = std::string(to_string(v)) + "/" +
                                 to_string(rt) + "/" + fault_name(f);
        LuOptions lo;
        lo.variant = v;
        lo.runtime = rt;
        out["lu/" + tail] = run_lu(lo, f);
        QrOptions qo;
        qo.variant = v;
        qo.runtime = rt;
        out["qr/" + tail] = run_qr(qo, f);
      }
    }
  }
  for (RuntimeMode rt : runtimes) {
    for (int budget : {0, 2}) {
      const std::string tail = std::string("ladder/") + to_string(rt) +
                               "/reruns" + std::to_string(budget);
      LuOptions lo;
      lo.runtime = rt;
      lo.max_reruns = budget;
      out["lu/" + tail] = run_lu(lo, Fault::Double);
      QrOptions qo;
      qo.runtime = rt;
      qo.max_reruns = budget;
      out["qr/" + tail] = run_qr(qo, Fault::Double);
    }
  }
  return out;
}

// clang-format off
const std::map<std::string, std::uint64_t> kExpected = {
    {"cholesky/enhanced-online-abft/blocking/checkpoint/bulk/checksum", 0x65f411981f2249e0ULL},
    {"cholesky/enhanced-online-abft/blocking/checkpoint/bulk/clean", 0x559422df66694542ULL},
    {"cholesky/enhanced-online-abft/blocking/checkpoint/bulk/computing", 0xf73e3a32772fcd53ULL},
    {"cholesky/enhanced-online-abft/blocking/checkpoint/bulk/storage", 0x5545e0c4ccaf64c5ULL},
    {"cholesky/enhanced-online-abft/blocking/checkpoint/dag/checksum", 0x65f411981f2249e0ULL},
    {"cholesky/enhanced-online-abft/blocking/checkpoint/dag/clean", 0x559422df66694542ULL},
    {"cholesky/enhanced-online-abft/blocking/checkpoint/dag/computing", 0xf73e3a32772fcd53ULL},
    {"cholesky/enhanced-online-abft/blocking/checkpoint/dag/storage", 0x5545e0c4ccaf64c5ULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/bulk/checksum", 0x1fc68be75363b056ULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/bulk/clean", 0x8c66d45e71bfd378ULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/bulk/computing", 0xbdc95265c8e4d82bULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/bulk/storage", 0x2939b121d00a2279ULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/dag/checksum", 0x5d3f922c9df1d478ULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/dag/clean", 0x4675066ff18eb1c8ULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/dag/computing", 0x979e43c1c8a4ab88ULL},
    {"cholesky/enhanced-online-abft/blocking/rerun/dag/storage", 0xb8850d737abfdcd5ULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/bulk/checksum", 0xa5b406b1d36b16bdULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/bulk/clean", 0xab16de8333f1d467ULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/bulk/computing", 0x9692c1c09c035641ULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/bulk/storage", 0x762b433fc255c409ULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/dag/checksum", 0xa5b406b1d36b16bdULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/dag/clean", 0xab16de8333f1d467ULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/dag/computing", 0x9692c1c09c035641ULL},
    {"cholesky/enhanced-online-abft/cpu/checkpoint/dag/storage", 0x762b433fc255c409ULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/bulk/checksum", 0x7e1a1067a756fa61ULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/bulk/clean", 0xc4810832fea61f95ULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/bulk/computing", 0x0381d1fb664b1243ULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/bulk/storage", 0x7bade58626288b1bULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/dag/checksum", 0x7e1a1067a756fa61ULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/dag/clean", 0xc4810832fea61f95ULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/dag/computing", 0x0381d1fb664b1243ULL},
    {"cholesky/enhanced-online-abft/cpu/rerun/dag/storage", 0x7bade58626288b1bULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/bulk/checksum", 0x90e38097639c2ae9ULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/bulk/clean", 0x5fa8627722fd8067ULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/bulk/computing", 0xedc19a9ae540e6f8ULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/bulk/storage", 0x2451e84f2013ab62ULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/dag/checksum", 0x90e38097639c2ae9ULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/dag/clean", 0x5fa8627722fd8067ULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/dag/computing", 0xedc19a9ae540e6f8ULL},
    {"cholesky/enhanced-online-abft/gpu/checkpoint/dag/storage", 0x2451e84f2013ab62ULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/bulk/checksum", 0xa76b968a067419a4ULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/bulk/clean", 0x4ba07c65a1f67e1aULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/bulk/computing", 0x3a26765bc3cd4035ULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/bulk/storage", 0x698b6380f0941f69ULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/dag/checksum", 0x0701bc284bc3aec1ULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/dag/clean", 0xd80b93bbd08dbfe9ULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/dag/computing", 0xc5f7f83fd8ea09afULL},
    {"cholesky/enhanced-online-abft/gpu/rerun/dag/storage", 0x9de6979e5ee9d736ULL},
    {"cholesky/guard/blocking/bulk/clean", 0xfc7d7f0fef7b8cc6ULL},
    {"cholesky/guard/blocking/bulk/storage", 0x29b4e130b6c79627ULL},
    {"cholesky/guard/blocking/dag/clean", 0xaa7698d7cc70387dULL},
    {"cholesky/guard/blocking/dag/storage", 0x89856ec9c684ffd4ULL},
    {"cholesky/guard/cpu/bulk/clean", 0x2237ff1f91308bccULL},
    {"cholesky/guard/cpu/bulk/storage", 0x7615fe101a69e1a3ULL},
    {"cholesky/guard/cpu/dag/clean", 0x2237ff1f91308bccULL},
    {"cholesky/guard/cpu/dag/storage", 0x7615fe101a69e1a3ULL},
    {"cholesky/guard/gpu/bulk/clean", 0x951429c57b065966ULL},
    {"cholesky/guard/gpu/bulk/storage", 0x21c4680180fef467ULL},
    {"cholesky/guard/gpu/dag/clean", 0x2ff6ca12ff632472ULL},
    {"cholesky/guard/gpu/dag/storage", 0x93be5e18895871cbULL},
    {"cholesky/k2/bulk/clean", 0x6a1d52d72ffdf42aULL},
    {"cholesky/k2/bulk/storage", 0xb97f1b03576b28daULL},
    {"cholesky/k2/dag/clean", 0x7b6916a18d9970dcULL},
    {"cholesky/k2/dag/storage", 0x4e9730a109e7ad8aULL},
    {"cholesky/ladder/checkpoint/bulk/reruns0", 0x0e018d8e0e54bd23ULL},
    {"cholesky/ladder/checkpoint/bulk/reruns2", 0x0e018d8e0e54bd23ULL},
    {"cholesky/ladder/checkpoint/dag/reruns0", 0x0e018d8e0e54bd23ULL},
    {"cholesky/ladder/checkpoint/dag/reruns2", 0x0e018d8e0e54bd23ULL},
    {"cholesky/ladder/rerun/bulk/reruns0", 0x33f370616a4cfa4fULL},
    {"cholesky/ladder/rerun/bulk/reruns2", 0xd610607c849e6da1ULL},
    {"cholesky/ladder/rerun/dag/reruns0", 0x7c57bdc37905595eULL},
    {"cholesky/ladder/rerun/dag/reruns2", 0x86f6170aa40ff64fULL},
    {"cholesky/no-ft/blocking/checkpoint/bulk/checksum", 0xfbae2692727fd53fULL},
    {"cholesky/no-ft/blocking/checkpoint/bulk/clean", 0x60ea4bd3b7e08ffeULL},
    {"cholesky/no-ft/blocking/checkpoint/bulk/computing", 0xb8a86b011ddfc644ULL},
    {"cholesky/no-ft/blocking/checkpoint/bulk/storage", 0x8034f354d3fbbd1aULL},
    {"cholesky/no-ft/blocking/checkpoint/dag/checksum", 0xfbae2692727fd53fULL},
    {"cholesky/no-ft/blocking/checkpoint/dag/clean", 0x60ea4bd3b7e08ffeULL},
    {"cholesky/no-ft/blocking/checkpoint/dag/computing", 0xb8a86b011ddfc644ULL},
    {"cholesky/no-ft/blocking/checkpoint/dag/storage", 0x8034f354d3fbbd1aULL},
    {"cholesky/no-ft/blocking/rerun/bulk/checksum", 0x7c560beb011d4945ULL},
    {"cholesky/no-ft/blocking/rerun/bulk/clean", 0x3c1924eb2d86ec57ULL},
    {"cholesky/no-ft/blocking/rerun/bulk/computing", 0x48c7c869ede01038ULL},
    {"cholesky/no-ft/blocking/rerun/bulk/storage", 0xb2fc4f48872ff1d0ULL},
    {"cholesky/no-ft/blocking/rerun/dag/checksum", 0x2a757927bdd98387ULL},
    {"cholesky/no-ft/blocking/rerun/dag/clean", 0xe7b58a423b45948dULL},
    {"cholesky/no-ft/blocking/rerun/dag/computing", 0x2efa98207a87b3fcULL},
    {"cholesky/no-ft/blocking/rerun/dag/storage", 0x82d788b8d1f5347eULL},
    {"cholesky/no-ft/cpu/checkpoint/bulk/checksum", 0xfbae2692727fd53fULL},
    {"cholesky/no-ft/cpu/checkpoint/bulk/clean", 0x60ea4bd3b7e08ffeULL},
    {"cholesky/no-ft/cpu/checkpoint/bulk/computing", 0xb8a86b011ddfc644ULL},
    {"cholesky/no-ft/cpu/checkpoint/bulk/storage", 0x8034f354d3fbbd1aULL},
    {"cholesky/no-ft/cpu/checkpoint/dag/checksum", 0xfbae2692727fd53fULL},
    {"cholesky/no-ft/cpu/checkpoint/dag/clean", 0x60ea4bd3b7e08ffeULL},
    {"cholesky/no-ft/cpu/checkpoint/dag/computing", 0xb8a86b011ddfc644ULL},
    {"cholesky/no-ft/cpu/checkpoint/dag/storage", 0x8034f354d3fbbd1aULL},
    {"cholesky/no-ft/cpu/rerun/bulk/checksum", 0x7c560beb011d4945ULL},
    {"cholesky/no-ft/cpu/rerun/bulk/clean", 0x3c1924eb2d86ec57ULL},
    {"cholesky/no-ft/cpu/rerun/bulk/computing", 0x48c7c869ede01038ULL},
    {"cholesky/no-ft/cpu/rerun/bulk/storage", 0xb2fc4f48872ff1d0ULL},
    {"cholesky/no-ft/cpu/rerun/dag/checksum", 0x2a757927bdd98387ULL},
    {"cholesky/no-ft/cpu/rerun/dag/clean", 0xe7b58a423b45948dULL},
    {"cholesky/no-ft/cpu/rerun/dag/computing", 0x2efa98207a87b3fcULL},
    {"cholesky/no-ft/cpu/rerun/dag/storage", 0x82d788b8d1f5347eULL},
    {"cholesky/no-ft/gpu/checkpoint/bulk/checksum", 0xfbae2692727fd53fULL},
    {"cholesky/no-ft/gpu/checkpoint/bulk/clean", 0x60ea4bd3b7e08ffeULL},
    {"cholesky/no-ft/gpu/checkpoint/bulk/computing", 0xb8a86b011ddfc644ULL},
    {"cholesky/no-ft/gpu/checkpoint/bulk/storage", 0x8034f354d3fbbd1aULL},
    {"cholesky/no-ft/gpu/checkpoint/dag/checksum", 0xfbae2692727fd53fULL},
    {"cholesky/no-ft/gpu/checkpoint/dag/clean", 0x60ea4bd3b7e08ffeULL},
    {"cholesky/no-ft/gpu/checkpoint/dag/computing", 0xb8a86b011ddfc644ULL},
    {"cholesky/no-ft/gpu/checkpoint/dag/storage", 0x8034f354d3fbbd1aULL},
    {"cholesky/no-ft/gpu/rerun/bulk/checksum", 0x7c560beb011d4945ULL},
    {"cholesky/no-ft/gpu/rerun/bulk/clean", 0x3c1924eb2d86ec57ULL},
    {"cholesky/no-ft/gpu/rerun/bulk/computing", 0x48c7c869ede01038ULL},
    {"cholesky/no-ft/gpu/rerun/bulk/storage", 0xb2fc4f48872ff1d0ULL},
    {"cholesky/no-ft/gpu/rerun/dag/checksum", 0x2a757927bdd98387ULL},
    {"cholesky/no-ft/gpu/rerun/dag/clean", 0xe7b58a423b45948dULL},
    {"cholesky/no-ft/gpu/rerun/dag/computing", 0x2efa98207a87b3fcULL},
    {"cholesky/no-ft/gpu/rerun/dag/storage", 0x82d788b8d1f5347eULL},
    {"cholesky/offline-abft/blocking/checkpoint/bulk/checksum", 0xba08afb8825c7694ULL},
    {"cholesky/offline-abft/blocking/checkpoint/bulk/clean", 0x84ee9b76917973e0ULL},
    {"cholesky/offline-abft/blocking/checkpoint/bulk/computing", 0x374b2d0caeb11497ULL},
    {"cholesky/offline-abft/blocking/checkpoint/bulk/storage", 0xf725fbe22d920d6bULL},
    {"cholesky/offline-abft/blocking/checkpoint/dag/checksum", 0xc0a3840fc1b808e8ULL},
    {"cholesky/offline-abft/blocking/checkpoint/dag/clean", 0x8e168be933c9b1d3ULL},
    {"cholesky/offline-abft/blocking/checkpoint/dag/computing", 0x0f559765df4be9bbULL},
    {"cholesky/offline-abft/blocking/checkpoint/dag/storage", 0xa0668791326011eaULL},
    {"cholesky/offline-abft/blocking/rerun/bulk/checksum", 0xba08afb8825c7694ULL},
    {"cholesky/offline-abft/blocking/rerun/bulk/clean", 0x84ee9b76917973e0ULL},
    {"cholesky/offline-abft/blocking/rerun/bulk/computing", 0x374b2d0caeb11497ULL},
    {"cholesky/offline-abft/blocking/rerun/bulk/storage", 0xf725fbe22d920d6bULL},
    {"cholesky/offline-abft/blocking/rerun/dag/checksum", 0xc0a3840fc1b808e8ULL},
    {"cholesky/offline-abft/blocking/rerun/dag/clean", 0x8e168be933c9b1d3ULL},
    {"cholesky/offline-abft/blocking/rerun/dag/computing", 0x0f559765df4be9bbULL},
    {"cholesky/offline-abft/blocking/rerun/dag/storage", 0xa0668791326011eaULL},
    {"cholesky/offline-abft/cpu/checkpoint/bulk/checksum", 0x744a4c2c5a28102eULL},
    {"cholesky/offline-abft/cpu/checkpoint/bulk/clean", 0xb83a7da9602cb50fULL},
    {"cholesky/offline-abft/cpu/checkpoint/bulk/computing", 0x4f28f81102078978ULL},
    {"cholesky/offline-abft/cpu/checkpoint/bulk/storage", 0x80ed33290bf5c487ULL},
    {"cholesky/offline-abft/cpu/checkpoint/dag/checksum", 0x744a4c2c5a28102eULL},
    {"cholesky/offline-abft/cpu/checkpoint/dag/clean", 0xb83a7da9602cb50fULL},
    {"cholesky/offline-abft/cpu/checkpoint/dag/computing", 0x4f28f81102078978ULL},
    {"cholesky/offline-abft/cpu/checkpoint/dag/storage", 0x80ed33290bf5c487ULL},
    {"cholesky/offline-abft/cpu/rerun/bulk/checksum", 0x744a4c2c5a28102eULL},
    {"cholesky/offline-abft/cpu/rerun/bulk/clean", 0xb83a7da9602cb50fULL},
    {"cholesky/offline-abft/cpu/rerun/bulk/computing", 0x4f28f81102078978ULL},
    {"cholesky/offline-abft/cpu/rerun/bulk/storage", 0x80ed33290bf5c487ULL},
    {"cholesky/offline-abft/cpu/rerun/dag/checksum", 0x744a4c2c5a28102eULL},
    {"cholesky/offline-abft/cpu/rerun/dag/clean", 0xb83a7da9602cb50fULL},
    {"cholesky/offline-abft/cpu/rerun/dag/computing", 0x4f28f81102078978ULL},
    {"cholesky/offline-abft/cpu/rerun/dag/storage", 0x80ed33290bf5c487ULL},
    {"cholesky/offline-abft/gpu/checkpoint/bulk/checksum", 0x6a756337349640e7ULL},
    {"cholesky/offline-abft/gpu/checkpoint/bulk/clean", 0x0d1305bc3f167c34ULL},
    {"cholesky/offline-abft/gpu/checkpoint/bulk/computing", 0xc65386114fbb6e27ULL},
    {"cholesky/offline-abft/gpu/checkpoint/bulk/storage", 0xa4fe6b265de9c295ULL},
    {"cholesky/offline-abft/gpu/checkpoint/dag/checksum", 0xb245edda7ab1afbdULL},
    {"cholesky/offline-abft/gpu/checkpoint/dag/clean", 0x1b28e8453bc269fcULL},
    {"cholesky/offline-abft/gpu/checkpoint/dag/computing", 0xe4ee99c9165d227aULL},
    {"cholesky/offline-abft/gpu/checkpoint/dag/storage", 0x876f3e5c45095b45ULL},
    {"cholesky/offline-abft/gpu/rerun/bulk/checksum", 0x6a756337349640e7ULL},
    {"cholesky/offline-abft/gpu/rerun/bulk/clean", 0x0d1305bc3f167c34ULL},
    {"cholesky/offline-abft/gpu/rerun/bulk/computing", 0xc65386114fbb6e27ULL},
    {"cholesky/offline-abft/gpu/rerun/bulk/storage", 0xa4fe6b265de9c295ULL},
    {"cholesky/offline-abft/gpu/rerun/dag/checksum", 0xb245edda7ab1afbdULL},
    {"cholesky/offline-abft/gpu/rerun/dag/clean", 0x1b28e8453bc269fcULL},
    {"cholesky/offline-abft/gpu/rerun/dag/computing", 0xe4ee99c9165d227aULL},
    {"cholesky/offline-abft/gpu/rerun/dag/storage", 0x876f3e5c45095b45ULL},
    {"cholesky/online-abft/blocking/checkpoint/bulk/checksum", 0x3873ee3396e8a4d3ULL},
    {"cholesky/online-abft/blocking/checkpoint/bulk/clean", 0x036227d113dedd02ULL},
    {"cholesky/online-abft/blocking/checkpoint/bulk/computing", 0x34ef4df735cc3fdfULL},
    {"cholesky/online-abft/blocking/checkpoint/bulk/storage", 0x9650c79d28d81f13ULL},
    {"cholesky/online-abft/blocking/checkpoint/dag/checksum", 0x3873ee3396e8a4d3ULL},
    {"cholesky/online-abft/blocking/checkpoint/dag/clean", 0x036227d113dedd02ULL},
    {"cholesky/online-abft/blocking/checkpoint/dag/computing", 0x34ef4df735cc3fdfULL},
    {"cholesky/online-abft/blocking/checkpoint/dag/storage", 0x9650c79d28d81f13ULL},
    {"cholesky/online-abft/blocking/rerun/bulk/checksum", 0x2373cd1d6b7cc342ULL},
    {"cholesky/online-abft/blocking/rerun/bulk/clean", 0x2efc133842b68b57ULL},
    {"cholesky/online-abft/blocking/rerun/bulk/computing", 0xfc27597796c4cff4ULL},
    {"cholesky/online-abft/blocking/rerun/bulk/storage", 0xc093d5a41f44dc41ULL},
    {"cholesky/online-abft/blocking/rerun/dag/checksum", 0x3e16aed1654ea23aULL},
    {"cholesky/online-abft/blocking/rerun/dag/clean", 0x37d75866c82bd50fULL},
    {"cholesky/online-abft/blocking/rerun/dag/computing", 0x6f34ec056c70b830ULL},
    {"cholesky/online-abft/blocking/rerun/dag/storage", 0x928c03c70e1ef70bULL},
    {"cholesky/online-abft/cpu/checkpoint/bulk/checksum", 0xc71bbc9684a1e5dcULL},
    {"cholesky/online-abft/cpu/checkpoint/bulk/clean", 0x20c6aae8ae0aaaaaULL},
    {"cholesky/online-abft/cpu/checkpoint/bulk/computing", 0x98903efe610135c3ULL},
    {"cholesky/online-abft/cpu/checkpoint/bulk/storage", 0xc143bb88b8e2d179ULL},
    {"cholesky/online-abft/cpu/checkpoint/dag/checksum", 0xc71bbc9684a1e5dcULL},
    {"cholesky/online-abft/cpu/checkpoint/dag/clean", 0x20c6aae8ae0aaaaaULL},
    {"cholesky/online-abft/cpu/checkpoint/dag/computing", 0x98903efe610135c3ULL},
    {"cholesky/online-abft/cpu/checkpoint/dag/storage", 0xc143bb88b8e2d179ULL},
    {"cholesky/online-abft/cpu/rerun/bulk/checksum", 0x4b366d7c9f55db2cULL},
    {"cholesky/online-abft/cpu/rerun/bulk/clean", 0x4badc64126ba92eaULL},
    {"cholesky/online-abft/cpu/rerun/bulk/computing", 0x2119d6769d32cbe8ULL},
    {"cholesky/online-abft/cpu/rerun/bulk/storage", 0x45e7e51b83292994ULL},
    {"cholesky/online-abft/cpu/rerun/dag/checksum", 0x4b366d7c9f55db2cULL},
    {"cholesky/online-abft/cpu/rerun/dag/clean", 0x4badc64126ba92eaULL},
    {"cholesky/online-abft/cpu/rerun/dag/computing", 0x2119d6769d32cbe8ULL},
    {"cholesky/online-abft/cpu/rerun/dag/storage", 0x45e7e51b83292994ULL},
    {"cholesky/online-abft/gpu/checkpoint/bulk/checksum", 0x2aa95459542f34e4ULL},
    {"cholesky/online-abft/gpu/checkpoint/bulk/clean", 0x6bebb5a1df64d279ULL},
    {"cholesky/online-abft/gpu/checkpoint/bulk/computing", 0xa3fde91f7ade99baULL},
    {"cholesky/online-abft/gpu/checkpoint/bulk/storage", 0xf2870e91cd4d26ffULL},
    {"cholesky/online-abft/gpu/checkpoint/dag/checksum", 0x2aa95459542f34e4ULL},
    {"cholesky/online-abft/gpu/checkpoint/dag/clean", 0x6bebb5a1df64d279ULL},
    {"cholesky/online-abft/gpu/checkpoint/dag/computing", 0xa3fde91f7ade99baULL},
    {"cholesky/online-abft/gpu/checkpoint/dag/storage", 0xf2870e91cd4d26ffULL},
    {"cholesky/online-abft/gpu/rerun/bulk/checksum", 0xcedc6969845ad073ULL},
    {"cholesky/online-abft/gpu/rerun/bulk/clean", 0xfca62ce351604586ULL},
    {"cholesky/online-abft/gpu/rerun/bulk/computing", 0xe4a88f3104f62377ULL},
    {"cholesky/online-abft/gpu/rerun/bulk/storage", 0xfae5ec808fc05fdeULL},
    {"cholesky/online-abft/gpu/rerun/dag/checksum", 0xf1a0a6131eb109a3ULL},
    {"cholesky/online-abft/gpu/rerun/dag/clean", 0xb5a0e686ed7c050cULL},
    {"cholesky/online-abft/gpu/rerun/dag/computing", 0x7e34f139bda00c11ULL},
    {"cholesky/online-abft/gpu/rerun/dag/storage", 0x6ece7c16b77b755aULL},
    {"cholesky/panel/bulk/clean/fill", 0x08ceac9da82e79e6ULL},
    {"cholesky/panel/bulk/clean/resume", 0x0bf621856f1f3d5bULL},
    {"cholesky/panel/bulk/late/fill", 0x08ceac9da82e79e6ULL},
    {"cholesky/panel/bulk/late/resume", 0xee3c4bd27753803eULL},
    {"cholesky/panel/dag/clean/fill", 0x08ceac9da82e79e6ULL},
    {"cholesky/panel/dag/clean/resume", 0x0bf621856f1f3d5bULL},
    {"cholesky/panel/dag/late/fill", 0x08ceac9da82e79e6ULL},
    {"cholesky/panel/dag/late/resume", 0xee3c4bd27753803eULL},
    {"cholesky/recalc3/bulk/clean", 0x7541f345bae60190ULL},
    {"cholesky/recalc3/bulk/storage", 0x815a8491ef11f7d2ULL},
    {"cholesky/recalc3/dag/clean", 0xd80b93bbd08dbfe9ULL},
    {"cholesky/recalc3/dag/storage", 0x9de6979e5ee9d736ULL},
    {"cholesky/serial-recalc/bulk/clean", 0xc0c288561cf3849eULL},
    {"cholesky/serial-recalc/bulk/storage", 0xc5c577eac01903e0ULL},
    {"cholesky/serial-recalc/dag/clean", 0xd9c61baaa1911be1ULL},
    {"cholesky/serial-recalc/dag/storage", 0x66648a3c9844f84eULL},
    {"lu/enhanced-online-abft/bulk/clean", 0xbe894396197ab33dULL},
    {"lu/enhanced-online-abft/bulk/computing", 0x31d87fe8d5f9fe63ULL},
    {"lu/enhanced-online-abft/bulk/storage", 0x98acd025ea841c9fULL},
    {"lu/enhanced-online-abft/dag/clean", 0x0c748bf6195785c5ULL},
    {"lu/enhanced-online-abft/dag/computing", 0x09bef888aa2d0173ULL},
    {"lu/enhanced-online-abft/dag/storage", 0x6b388025d3786e6aULL},
    {"lu/k2/bulk/clean", 0xb3a054adead2b8b4ULL},
    {"lu/k2/bulk/storage", 0x0213dbf46c73b94aULL},
    {"lu/k2/dag/clean", 0x1525fc8d90a18243ULL},
    {"lu/k2/dag/storage", 0xe22063dab3fdb384ULL},
    {"lu/ladder/bulk/reruns0", 0xcd077a37a6d7ad75ULL},
    {"lu/ladder/bulk/reruns2", 0xaa7b5a32575d1802ULL},
    {"lu/ladder/dag/reruns0", 0x3046b8e5f229f031ULL},
    {"lu/ladder/dag/reruns2", 0x9518740a3fe7b120ULL},
    {"lu/no-ft/bulk/clean", 0xbbc26e9015b9b3e3ULL},
    {"lu/no-ft/bulk/computing", 0x1ab2947a156bd912ULL},
    {"lu/no-ft/bulk/storage", 0x5d85d23915b13db3ULL},
    {"lu/no-ft/dag/clean", 0xbbc26e9015b9b3e3ULL},
    {"lu/no-ft/dag/computing", 0x1ab2947a156bd912ULL},
    {"lu/no-ft/dag/storage", 0x5d85d23915b13db3ULL},
    {"lu/serial-recalc/bulk/clean", 0x26ae017a6ca07d91ULL},
    {"lu/serial-recalc/bulk/storage", 0xd9745b0a2937f715ULL},
    {"lu/serial-recalc/dag/clean", 0xabe174dceb5b05a4ULL},
    {"lu/serial-recalc/dag/storage", 0x421928fd6d9fdd56ULL},
    {"qr/enhanced-online-abft/bulk/clean", 0x9068fdec6378c73fULL},
    {"qr/enhanced-online-abft/bulk/computing", 0x84d827c84760ad0aULL},
    {"qr/enhanced-online-abft/bulk/storage", 0xf7363128adea7edfULL},
    {"qr/enhanced-online-abft/dag/clean", 0x8514f8491858bf42ULL},
    {"qr/enhanced-online-abft/dag/computing", 0xdb8c8af8d7189809ULL},
    {"qr/enhanced-online-abft/dag/storage", 0x4c486bae4545036aULL},
    {"qr/k2/bulk/clean", 0xb298a3f5d3bf6983ULL},
    {"qr/k2/bulk/storage", 0x07d3ab8570a61d7fULL},
    {"qr/k2/dag/clean", 0xb5e8b354b0dd03adULL},
    {"qr/k2/dag/storage", 0x0090d15b7ec71ec9ULL},
    {"qr/ladder/bulk/reruns0", 0x3e99c8fd11ff3144ULL},
    {"qr/ladder/bulk/reruns2", 0x3e99c8fd11ff3144ULL},
    {"qr/ladder/dag/reruns0", 0x14df5988a6bd9a89ULL},
    {"qr/ladder/dag/reruns2", 0x14df5988a6bd9a89ULL},
    {"qr/no-ft/bulk/clean", 0xf4e2b0a70b844e66ULL},
    {"qr/no-ft/bulk/computing", 0x13dd77b016739887ULL},
    {"qr/no-ft/bulk/storage", 0xd1df3a06909a538dULL},
    {"qr/no-ft/dag/clean", 0xf4e2b0a70b844e66ULL},
    {"qr/no-ft/dag/computing", 0x13dd77b016739887ULL},
    {"qr/no-ft/dag/storage", 0xd1df3a06909a538dULL},
    {"qr/recalc3/bulk/clean", 0x6dc5278e90d1d810ULL},
    {"qr/recalc3/bulk/storage", 0x4b1989e2d561dd49ULL},
    {"qr/recalc3/dag/clean", 0xa3c84eb61d3a4f86ULL},
    {"qr/recalc3/dag/storage", 0xb1949d0dccc96552ULL},
};
// clang-format on

TEST(DriverDigest, MatchesRecordedTable) {
  const std::map<std::string, std::uint64_t> actual = actual_digests();
  int mismatches = 0;
  for (const auto& [name, d] : actual) {
    const auto it = kExpected.find(name);
    if (it == kExpected.end() || it->second != d) ++mismatches;
  }
  for (const auto& [name, d] : kExpected) {
    if (actual.count(name) == 0) ++mismatches;
  }
  if (mismatches > 0) {
    std::string table;
    for (const auto& [name, d] : actual) {
      char line[160];
      std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                    name.c_str(), static_cast<unsigned long long>(d));
      table += line;
    }
    ADD_FAILURE() << mismatches << " of " << actual.size()
                  << " digests differ from the recorded table; actual:\n"
                  << table;
  }
  EXPECT_EQ(actual.size(), kExpected.size());
}

}  // namespace
}  // namespace ftla::abft
