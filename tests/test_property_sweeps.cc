// Parameterized property sweeps (TEST_P): protocol correctness across the
// (n, drop, detector) grid, structural run invariants under randomized
// protocols, and epistemic laws on generated systems.
#include <gtest/gtest.h>

#include "udc/common/rng.h"
#include "udc/coord/action.h"
#include "udc/coord/nudc_protocol.h"
#include "udc/coord/spec.h"
#include "udc/coord/udc_generalized.h"
#include "udc/coord/udc_atd.h"
#include "udc/coord/udc_fip.h"
#include "udc/coord/udc_majority.h"
#include "udc/coord/udc_strongfd.h"
#include "udc/fd/atd.h"
#include "udc/event/fairness.h"
#include "udc/fd/generalized.h"
#include "udc/fd/oracle.h"
#include "udc/fd/properties.h"
#include "udc/kt/knowledge_fd.h"
#include "udc/sim/crash_schedule.h"
#include "udc/sim/system_factory.h"

namespace udc {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: UDC protocols across (n, drop).
// ---------------------------------------------------------------------------
struct UdcSweepParam {
  UdcSweepParam(int n_, double drop_, const char* detector_)
      : n(n_), drop(drop_), detector(detector_) {}
  int n;
  // gtest prints a parameter without a printer as its raw bytes, and that
  // dump is part of the listed test name; naming the padding after `n`
  // keeps it zero instead of stack garbage, so the name is stable.
  int padding = 0;
  double drop;
  const char* detector;  // "perfect" | "strong" | "t-useful"
};

inline bool det_is_majority(const char* d) {
  return std::string(d) == "majority";
}

class UdcGrid : public ::testing::TestWithParam<UdcSweepParam> {};

TEST_P(UdcGrid, AchievesUdcAcrossCrashPlans) {
  const UdcSweepParam param = GetParam();
  SimConfig cfg;
  cfg.n = param.n;
  cfg.horizon = param.drop >= 0.5 ? 800 : 500;
  cfg.channel.drop_prob = param.drop;
  const Time grace = param.drop >= 0.5 ? 300 : 180;
  auto workload = make_workload(param.n, 1, 5, 7);
  auto actions = workload_actions(workload);
  int t = det_is_majority(param.detector) ? (param.n - 1) / 2 : param.n - 1;
  auto plans = all_crash_plans_up_to(param.n, t, 25, 120);

  OracleFactory oracle;
  ProtocolFactory protocol;
  std::string det = param.detector;
  if (det == "perfect") {
    oracle = [] { return std::make_unique<PerfectOracle>(4); };
    protocol = [](ProcessId) { return std::make_unique<UdcStrongFdProcess>(); };
  } else if (det == "strong") {
    oracle = [] { return std::make_unique<StrongOracle>(4, 0.2); };
    protocol = [](ProcessId) { return std::make_unique<UdcStrongFdProcess>(); };
  } else if (det == "fip") {
    oracle = [] { return std::make_unique<PerfectOracle>(4); };
    protocol = [](ProcessId) { return std::make_unique<FipUdcProcess>(); };
  } else if (det == "atd") {
    oracle = [] { return std::make_unique<AtdOracle>(6); };
    protocol = [](ProcessId) { return std::make_unique<UdcAtdProcess>(); };
  } else if (det == "majority") {
    oracle = nullptr;
    protocol = [](ProcessId) {
      return std::make_unique<UdcMajorityProcess>();
    };
  } else {
    int t = param.n - 1;
    oracle = [t] { return std::make_unique<TUsefulOracle>(t, 4, 1); };
    protocol = [t](ProcessId) {
      return std::make_unique<UdcGeneralizedProcess>(t);
    };
  }
  System sys = generate_system(cfg, plans, workload, oracle, protocol, 1);
  CoordReport rep = check_udc(sys, actions, grace);
  EXPECT_TRUE(rep.achieved())
      << (rep.violations.empty() ? "" : rep.violations[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UdcGrid,
    ::testing::Values(UdcSweepParam{3, 0.0, "perfect"},
                      UdcSweepParam{3, 0.5, "perfect"},
                      UdcSweepParam{4, 0.3, "perfect"},
                      UdcSweepParam{4, 0.3, "strong"},
                      UdcSweepParam{4, 0.5, "strong"},
                      UdcSweepParam{5, 0.3, "strong"},
                      UdcSweepParam{4, 0.3, "t-useful"},
                      UdcSweepParam{5, 0.3, "t-useful"},
                      UdcSweepParam{6, 0.3, "perfect"},
                      UdcSweepParam{4, 0.3, "fip"},
                      UdcSweepParam{5, 0.5, "fip"},
                      UdcSweepParam{5, 0.3, "atd"},
                      UdcSweepParam{4, 0.5, "atd"},
                      UdcSweepParam{5, 0.3, "majority"},
                      UdcSweepParam{7, 0.3, "majority"}),
    [](const ::testing::TestParamInfo<UdcSweepParam>& info) {
      std::string name = "n" + std::to_string(info.param.n) + "_drop" +
                         std::to_string(static_cast<int>(info.param.drop * 10)) +
                         "_" + info.param.detector;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Sweep 2: structural invariants under a randomized chaos protocol.  The
// simulator must produce R1-R4-valid, fairness-clean runs no matter what
// the protocol does with its intents.
// ---------------------------------------------------------------------------
class ChaosProcess : public Process {
 public:
  explicit ChaosProcess(std::uint64_t seed) : rng_(seed) {}

  void on_tick(Env& env) override {
    if (!env.outbox_empty()) return;
    switch (rng_.next_below(4)) {
      case 0: {  // random app message
        if (env.n() < 2) break;
        ProcessId to = static_cast<ProcessId>(
            rng_.next_below(static_cast<std::uint64_t>(env.n())));
        if (to == env.self()) break;
        Message m;
        m.kind = MsgKind::kApp;
        m.a = static_cast<std::int64_t>(rng_.next_below(4));
        env.send(to, m);
        break;
      }
      case 1:  // random (non-init'd!) perform — will violate DC3, which is
               // exactly what the spec checker is for; run validity is the
               // property under test here.
        env.perform(make_action(env.self(), 99));
        break;
      default:
        break;
    }
  }
  void on_receive(ProcessId from, const Message& msg, Env& env) override {
    if (rng_.chance(0.3)) {
      Message reply = msg;
      env.send(from, reply);
    }
  }

 private:
  Rng rng_;
};

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, RunsValidateAndStayFair) {
  std::uint64_t seed = GetParam();
  SimConfig cfg;
  cfg.n = 5;
  cfg.horizon = 300;
  cfg.channel.drop_prob = 0.4;
  cfg.seed = seed;
  CrashPlan plan =
      sampled_crash_plans(5, 4, 1, 20, 200, seed * 31 + 7).front();
  PerfectOracle oracle(6);
  SimResult res = simulate(cfg, plan, &oracle, {}, [seed](ProcessId p) {
    return std::make_unique<ChaosProcess>(seed * 100 + p);
  });
  // Build succeeded => R1-R4 hold.  Check the fairness surrogate and the
  // detector property re-verification on top.
  EXPECT_TRUE(check_fairness(res.run, 40).fair());
  FdPropertyReport fd = check_fd_properties(res.run, 80);
  EXPECT_TRUE(fd.strong_accuracy);
  // Chaos performs violate DC3 by construction — the checker must say so
  // whenever a perform happened.
  std::vector<ActionId> chaos_actions;
  for (ProcessId p = 0; p < 5; ++p) chaos_actions.push_back(make_action(p, 99));
  bool any_perform = false;
  for (ProcessId p = 0; p < 5; ++p) {
    for (const Event& e : res.run.history(p).events()) {
      any_perform |= e.kind == EventKind::kDo;
    }
  }
  if (any_perform) {
    EXPECT_FALSE(check_udc(res.run, chaos_actions, 0).dc3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Sweep 3: epistemic laws over generated systems — knowledge veridicality
// and monotonicity of known_crashed along every run.
// ---------------------------------------------------------------------------
class KnowledgeLaws : public ::testing::TestWithParam<double> {};

TEST_P(KnowledgeLaws, VeridicalAndMonotone) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.horizon = 120;
  cfg.channel.drop_prob = GetParam();
  cfg.seed = 17;
  auto workload = make_workload(3, 1, 4, 6);
  auto plans = all_crash_plans_up_to(3, 2, 15, 60);
  System sys = generate_system(
      cfg, plans, workload, [] { return std::make_unique<PerfectOracle>(4); },
      [](ProcessId) { return std::make_unique<UdcStrongFdProcess>(); }, 1);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const udc::Run& r = sys.run(i);
    for (ProcessId p = 0; p < 3; ++p) {
      ProcSet prev;
      for (Time m = 0; m <= r.horizon(); m += 3) {
        ProcSet known = known_crashed(sys, Point{i, m}, p);
        // Veridical: only actually-crashed processes are known crashed.
        for (ProcessId q : known) {
          EXPECT_TRUE(r.crashed_by(q, m));
        }
        // Monotone along the run (histories only grow; crash is stable).
        EXPECT_TRUE(prev.subset_of(known))
            << "run " << i << " p" << p << " m=" << m;
        prev = known;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DropRates, KnowledgeLaws,
                         ::testing::Values(0.0, 0.25, 0.5));

// ---------------------------------------------------------------------------
// Sweep 4: the t-usefulness predicate is monotone in the ways the paper's
// definition implies.
// ---------------------------------------------------------------------------
TEST(TUsefulProperties, MonotoneInKAndAntitoneInS) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    int n = 3 + static_cast<int>(rng.next_below(6));  // 3..8
    int t = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    ProcSet s(rng.next() & ((1u << n) - 1));
    ProcSet faulty(rng.next() & s.bits());  // F ⊆ S so clause (a) holds
    int k = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(s.size()) + 1));
    bool useful = is_t_useful_report(s, k, faulty, n, t);
    // Raising k (within |S|) preserves usefulness.
    if (useful && k + 1 <= s.size()) {
      EXPECT_TRUE(is_t_useful_report(s, k + 1, faulty, n, t));
    }
    // Growing S at fixed k can only hurt clause (b).
    ProcSet bigger = s;
    for (ProcessId q = 0; q < n; ++q) {
      if (!bigger.contains(q)) {
        bigger.insert(q);
        break;
      }
    }
    if (!useful && bigger != s) {
      EXPECT_FALSE(is_t_useful_report(bigger, k, faulty, n, t));
    }
    // Usefulness never holds with k > |S|.
    EXPECT_FALSE(is_t_useful_report(s, s.size() + 1, faulty, n, t));
  }
}

}  // namespace
}  // namespace udc
