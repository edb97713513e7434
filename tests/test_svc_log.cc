// Replicated service log (svc/log): term rules, quorum, the DC2'
// out-of-order apply rule, floor arithmetic, and the stale-entry erasure
// that failover adoption depends on.  The last test checks the frontier
// queries (which start above the applied floor) against full scans over a
// long random history.
#include "udc/svc/log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "udc/common/rng.h"
#include "udc/coord/action.h"

namespace udc {
namespace {

SvcBatch batch(std::uint64_t slot, std::uint64_t term, ActionId action,
               std::initializer_list<std::uint64_t> sessions = {}) {
  SvcBatch b;
  b.slot = slot;
  b.term = term;
  b.action = action;
  for (std::uint64_t s : sessions) {
    SvcOp op;
    op.session = s;
    op.seq = 1;
    op.kind = SvcOpKind::kWrite;
    op.reg = static_cast<std::int32_t>(s % 64);  // one register per session
    op.value = 1;
    b.ops.push_back(op);
  }
  return b;
}

TEST(ReplicatedLog, AcceptTermRules) {
  ReplicatedLog log;
  const ActionId a1 = make_action(0, 1);
  const ActionId a2 = make_action(1, 1);
  EXPECT_TRUE(log.accept(batch(1, 5, a1)));
  // Lower term for the same slot: refused.
  EXPECT_FALSE(log.accept(batch(1, 4, a2)));
  ASSERT_NE(log.entry(1), nullptr);
  EXPECT_EQ(log.entry(1)->batch.action, a1);
  // Equal term, same action: idempotent re-accept.
  EXPECT_TRUE(log.accept(batch(1, 5, a1)));
  // Higher term, different action: the slot is overwritten and the old
  // acks are void (different content, different quorum).
  log.ack(1, 0);
  log.ack(1, 1);
  EXPECT_TRUE(log.has_quorum(1, 3));
  EXPECT_TRUE(log.accept(batch(1, 6, a2)));
  EXPECT_EQ(log.entry(1)->batch.action, a2);
  EXPECT_FALSE(log.has_quorum(1, 3));
  EXPECT_EQ(log.slot_of(a1), std::nullopt);
  EXPECT_EQ(log.slot_of(a2), std::optional<std::uint64_t>(1));
  // Slots are numbered from 1: slot 0 is refused, whatever its term.
  EXPECT_FALSE(log.accept(batch(0, 9, make_action(2, 1))));
  EXPECT_EQ(log.entry(0), nullptr);
}

TEST(ReplicatedLog, ReSealUnderNewTermVoidsOldTermAcks) {
  // Lost-acknowledged-write regression: a re-elected leader re-seals its
  // own batch (SAME action) under a higher term.  The acks recorded under
  // the old term may cover acceptances the ackers have since replaced —
  // counting them would commit on a fake quorum, and shifting partitions
  // can then commit two different actions at one slot at different
  // replicas.  A term change must void the ack set just like a content
  // change does.
  ReplicatedLog log;
  const ActionId a = make_action(0, 1);
  ASSERT_TRUE(log.accept(batch(1, 2, a)));
  log.ack(1, 0);
  log.ack(1, 1);
  EXPECT_TRUE(log.has_quorum(1, 3));
  // Same action, higher term: accepted, but the quorum must be gone.
  EXPECT_TRUE(log.accept(batch(1, 5, a)));
  EXPECT_EQ(log.entry(1)->batch.term, 5u);
  EXPECT_FALSE(log.has_quorum(1, 3));
  // Fresh acks under the new acceptance rebuild it.
  log.ack(1, 0);
  log.ack(1, 2);
  EXPECT_TRUE(log.has_quorum(1, 3));
  // Same action, SAME term: idempotent — acks survive.
  EXPECT_TRUE(log.accept(batch(1, 5, a)));
  EXPECT_TRUE(log.has_quorum(1, 3));
}

TEST(ReplicatedLog, CommittedSlotNeverChangesContent) {
  ReplicatedLog log;
  const ActionId a1 = make_action(0, 1);
  const ActionId a2 = make_action(1, 1);
  ASSERT_TRUE(log.accept(batch(1, 2, a1)));
  log.mark_committed(1);
  // Re-teach of the same action: fine (idempotent).  Different content at
  // ANY term: refused — that would be the uniformity violation.
  EXPECT_TRUE(log.accept(batch(1, 9, a1)));
  EXPECT_FALSE(log.accept(batch(1, 99, a2)));
  EXPECT_EQ(log.entry(1)->batch.action, a1);
}

TEST(ReplicatedLog, QuorumCountsDistinctAckers) {
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(3, 1, make_action(0, 1))));
  EXPECT_FALSE(log.has_quorum(3, 3));
  log.ack(3, 0);
  log.ack(3, 0);  // duplicate acker: still one disk
  EXPECT_FALSE(log.has_quorum(3, 3));
  log.ack(3, 2);
  EXPECT_TRUE(log.has_quorum(3, 3));
  // Unknown slot: ack is a no-op, quorum is false.
  log.ack(9, 0);
  EXPECT_FALSE(log.has_quorum(9, 3));
}

TEST(ReplicatedLog, StaleEntryErasedWhenActionMovesSlots) {
  // Failover adoption re-seals an orphaned action at a NEW slot; the old
  // uncommitted entry must vanish (it can never commit — its action is
  // committing elsewhere — and left in place it would block the floor).
  ReplicatedLog log;
  const ActionId a = make_action(0, 7);
  ASSERT_TRUE(log.accept(batch(4, 1, a)));
  EXPECT_TRUE(log.accept(batch(6, 2, a)));
  EXPECT_EQ(log.entry(4), nullptr);
  EXPECT_EQ(log.slot_of(a), std::optional<std::uint64_t>(6));
  EXPECT_EQ(log.size(), 1u);
}

TEST(ReplicatedLog, CommittedActionRefusesToMoveSlots) {
  ReplicatedLog log;
  const ActionId a = make_action(0, 7);
  ASSERT_TRUE(log.accept(batch(4, 1, a)));
  log.mark_committed(4);
  EXPECT_FALSE(log.accept(batch(6, 2, a)));
  EXPECT_EQ(log.slot_of(a), std::optional<std::uint64_t>(4));
}

TEST(ReplicatedLog, Dc2PrimeApplicability) {
  ReplicatedLog log;
  // Slot 1 (session 10) uncommitted; slot 2 (session 20) committed.
  ASSERT_TRUE(log.accept(batch(1, 1, make_action(0, 1), {10})));
  ASSERT_TRUE(log.accept(batch(2, 1, make_action(0, 2), {20})));
  log.mark_committed(2);
  // Commutes (disjoint sessions AND registers) with every unapplied
  // earlier slot: applicable out of order — no session can observe the
  // inversion and no replica can diverge.
  EXPECT_TRUE(log.applicable(2));
  EXPECT_EQ(log.ready(), std::vector<std::uint64_t>{2});

  // Slot 4 shares session 10 with unapplied slot 1: must wait.
  ASSERT_TRUE(log.accept(batch(4, 1, make_action(0, 4), {10})));
  log.mark_committed(4);
  EXPECT_FALSE(log.applicable(4));


  // Slot 5 is behind an UNKNOWN slot 3: must wait for catch-up (the gap
  // might hold a shared session).
  ASSERT_TRUE(log.accept(batch(5, 1, make_action(0, 5), {30})));
  log.mark_committed(5);
  EXPECT_FALSE(log.applicable(5));

  // Applying slot 2 out of order: floor stays 0 (slot 1 unapplied).
  EXPECT_TRUE(log.mark_applied(2));
  EXPECT_EQ(log.applied_floor(), 0u);
  EXPECT_EQ(log.applied_above_floor(), std::vector<std::uint64_t>{2});

  // Once slot 1 commits and applies in order, the floor sweeps past the
  // already-applied slot 2.
  log.mark_committed(1);
  EXPECT_FALSE(log.mark_applied(1));
  EXPECT_EQ(log.applied_floor(), 2u);
  EXPECT_TRUE(log.applied_above_floor().empty());
  EXPECT_EQ(log.applied_count(), 2u);
}

TEST(ReplicatedLog, SharedRegisterBlocksOutOfOrderApply) {
  // Different sessions, SAME register: the swapped applies do not commute
  // (final value and acked versions would depend on apply order), so the
  // later slot must wait even though no session is shared.
  ReplicatedLog log;
  SvcOp a;
  a.session = 10;
  a.seq = 1;
  a.kind = SvcOpKind::kWrite;
  a.reg = 7;
  a.value = 1;
  SvcOp b = a;
  b.session = 99;
  b.value = 2;
  SvcBatch b1;
  b1.slot = 1;
  b1.term = 1;
  b1.action = make_action(0, 1);
  b1.ops = {a};
  SvcBatch b2;
  b2.slot = 2;
  b2.term = 1;
  b2.action = make_action(0, 2);
  b2.ops = {b};
  ASSERT_TRUE(log.accept(b1));
  ASSERT_TRUE(log.accept(b2));
  log.mark_committed(2);
  EXPECT_FALSE(log.applicable(2));
  // Once slot 1 is applied, slot 2 is simply next in order.
  log.mark_committed(1);
  EXPECT_FALSE(log.mark_applied(1));
  EXPECT_TRUE(log.applicable(2));
}

TEST(ReplicatedLog, LearnFloorCommitsCoveredSlotsOfTheNoticeTerm) {
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(1, 1, make_action(0, 1), {10})));
  ASSERT_TRUE(log.accept(batch(2, 1, make_action(0, 2), {20})));
  ASSERT_TRUE(log.accept(batch(3, 1, make_action(0, 3), {30})));
  log.learn_floor(2, 1);
  EXPECT_TRUE(log.entry(1)->committed);
  EXPECT_TRUE(log.entry(2)->committed);
  EXPECT_FALSE(log.entry(3)->committed);
  // The learned floor makes 1 and 2 applicable in order.
  EXPECT_EQ(log.ready(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(ReplicatedLog, LearnFloorLeavesOtherTermEntriesForCatchUp) {
  // A term-4 notice floor covering a term-1 local entry proves nothing
  // about that entry's CONTENT (the cluster may have committed different
  // content there under a later leadership) — it must stay uncommitted
  // until catch-up sync re-teaches it with a per-entry flag.
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(1, 1, make_action(0, 1), {10})));
  ASSERT_TRUE(log.accept(batch(2, 4, make_action(1, 1), {20})));
  log.learn_floor(2, 4);
  EXPECT_FALSE(log.entry(1)->committed);
  EXPECT_TRUE(log.entry(2)->committed);
}

TEST(ReplicatedLog, KnownCommittedContentBeatsHigherTermLeftover) {
  // Failover wedge regression: a leader-elect holds an uncommitted term-9
  // leftover at slot 1; the sync majority ships the batch the cluster
  // actually COMMITTED there under term 2.  The committed content must
  // win despite the lower term — refusing it would nack every re-propose
  // forever and freeze the floor below slot 1.
  ReplicatedLog log;
  const ActionId mine = make_action(0, 1);
  const ActionId theirs = make_action(1, 1);
  ASSERT_TRUE(log.accept(batch(1, 9, mine)));
  EXPECT_FALSE(log.accept(batch(1, 2, theirs)));  // plain path: term rules
  EXPECT_TRUE(log.accept(batch(1, 2, theirs), /*known_committed=*/true));
  EXPECT_EQ(log.entry(1)->batch.action, theirs);
  // The displaced action is homeless again (the caller stashes it for
  // adoption before the accept).
  EXPECT_EQ(log.slot_of(mine), std::nullopt);
  // A COMMITTED local entry never yields, vouched or not.
  log.mark_committed(1);
  EXPECT_FALSE(log.accept(batch(1, 99, mine), /*known_committed=*/true));
  EXPECT_EQ(log.entry(1)->batch.action, theirs);
}

TEST(ReplicatedLog, UncommittedListsLowestFirst) {
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(5, 1, make_action(0, 5))));
  ASSERT_TRUE(log.accept(batch(2, 1, make_action(0, 2))));
  ASSERT_TRUE(log.accept(batch(8, 1, make_action(0, 8))));
  log.mark_committed(5);
  auto unc = log.uncommitted();
  ASSERT_EQ(unc.size(), 2u);
  EXPECT_EQ(unc[0]->batch.slot, 2u);
  EXPECT_EQ(unc[1]->batch.slot, 8u);
  EXPECT_EQ(log.max_slot(), 8u);
}

// --- frontier queries vs. a full scan ---------------------------------------

// The reference side of the differential test: one pass from slot 1 to
// max_slot() through entry(), trusting nothing about the applied floor.
bool ref_commute(const SvcBatch& a, const SvcBatch& b) {
  for (const SvcOp& x : a.ops) {
    for (const SvcOp& y : b.ops) {
      if (x.session == y.session || x.reg == y.reg) return false;
    }
  }
  return true;
}

struct FullScan {
  std::vector<std::uint64_t> ready;
  std::vector<std::uint64_t> uncommitted;
  std::vector<int> flags;  // per slot: 0 missing, 1 committed, 2 not
};

FullScan full_scan(const ReplicatedLog& log) {
  // A committed, unapplied slot is ready iff no slot below it is missing
  // and it commutes with every unapplied slot below it.
  FullScan out;
  out.flags.assign(log.max_slot() + 1, 0);
  std::vector<const SvcBatch*> unapplied_below;
  bool gap_below = false;
  for (std::uint64_t s = 1; s <= log.max_slot(); ++s) {
    const SvcLogEntry* e = log.entry(s);
    if (e == nullptr) {
      gap_below = true;
      continue;
    }
    out.flags[s] = e->committed ? 1 : 2;
    if (!e->committed) out.uncommitted.push_back(s);
    if (e->applied) continue;
    bool ok = e->committed && !gap_below;
    for (const SvcBatch* u : unapplied_below) {
      if (!ok) break;
      ok = ref_commute(*u, e->batch);
    }
    if (ok) out.ready.push_back(s);
    unapplied_below.push_back(&e->batch);
  }
  return out;
}

std::vector<std::uint64_t> slots_of(
    const std::vector<const SvcLogEntry*>& entries) {
  std::vector<std::uint64_t> out;
  for (const SvcLogEntry* e : entries) out.push_back(e->batch.slot);
  return out;
}

TEST(ReplicatedLog, FrontierQueriesMatchAFullScan) {
  constexpr std::uint64_t kSlots = 5'000;
  constexpr std::uint64_t kWindow = 40;  // max slots sealed above the floor
  Rng rng(16);
  ReplicatedLog log;
  std::uint64_t term = 1;
  std::uint64_t next_slot = 1;
  ActionId next_action = 0;
  std::set<std::uint64_t> gaps;  // slots below next_slot with no entry
  FullScan scan;                 // the state after the last step

  // Batches draw sessions and registers from small pools, so some pairs
  // commute and some do not; a few batches are empty (commute with all).
  auto fresh = [&](std::uint64_t slot, std::uint64_t t, ActionId a) {
    SvcBatch b;
    b.slot = slot;
    b.term = t;
    b.action = a;
    const std::uint64_t n_ops = rng.next_below(4);
    for (std::uint64_t i = 0; i < n_ops; ++i) {
      SvcOp op;
      op.session = rng.next_below(24);
      op.seq = 1;
      op.kind = SvcOpKind::kWrite;
      op.reg = static_cast<std::int32_t>(rng.next_below(24));
      op.value = 1;
      b.ops.push_back(op);
    }
    return b;
  };
  auto random_uncommitted = [&]() -> const SvcLogEntry* {
    const auto unc = log.uncommitted();
    return unc.empty() ? nullptr : unc[rng.next_below(unc.size())];
  };

  std::uint64_t steps = 0, learns = 0, ooo_applies = 0, overrides = 0,
                moves = 0, reaccepts = 0;
  while (log.applied_floor() < kSlots) {
    ASSERT_LT(++steps, 400'000u) << "history stalled at floor "
                                 << log.applied_floor();
    const std::uint64_t op = rng.next_below(100);
    if (op < 22) {
      // Seal the next slot, sometimes skipping one (a gap catch-up fills).
      if (next_slot - log.applied_floor() > kWindow) continue;
      if (rng.next_below(8) == 0) gaps.insert(next_slot++);
      ASSERT_TRUE(log.accept(fresh(next_slot, term, next_action++)));
      ++next_slot;
    } else if (op < 30) {
      // Catch-up fills a gap, at the current or an older term.
      if (gaps.empty()) continue;
      const std::uint64_t s = *gaps.begin();
      gaps.erase(gaps.begin());
      const std::uint64_t t = term - rng.next_below(term);
      ASSERT_TRUE(log.accept(fresh(s, t, next_action++)));
    } else if (op < 36) {
      // Re-accept under a higher term: same action (re-propose after an
      // election) or a new one (a successor reused the slot).
      const SvcLogEntry* e = random_uncommitted();
      if (e == nullptr) continue;
      if (rng.next_below(3) == 0) ++term;
      SvcBatch b = rng.next_below(2) == 0
                       ? e->batch
                       : fresh(e->batch.slot, term, next_action++);
      b.term = term;
      EXPECT_TRUE(log.accept(b));
      ++reaccepts;
    } else if (op < 40) {
      // known_committed: lower-term committed content beats a leftover.
      const SvcLogEntry* e = random_uncommitted();
      if (e == nullptr || e->batch.term < 2) continue;
      const std::uint64_t s = e->batch.slot;
      EXPECT_TRUE(log.accept(fresh(s, e->batch.term - 1, next_action++),
                             /*known_committed=*/true));
      log.mark_committed(s);
      ++overrides;
    } else if (op < 43) {
      // Adoption moves an uncommitted action to a new slot; its old slot
      // becomes a gap.
      const SvcLogEntry* e = random_uncommitted();
      if (e == nullptr || next_slot - log.applied_floor() > kWindow) continue;
      const std::uint64_t old = e->batch.slot;
      SvcBatch b = e->batch;
      b.slot = next_slot++;
      b.term = term;
      ASSERT_TRUE(log.accept(b));
      ASSERT_EQ(log.entry(old), nullptr);
      gaps.insert(old);
      ++moves;
    } else if (op < 65) {
      const SvcLogEntry* e = random_uncommitted();
      if (e != nullptr) log.mark_committed(e->batch.slot);
    } else if (op < 88) {
      // Apply one ready slot, not necessarily the lowest (DC2').
      const auto ready = log.ready();
      if (ready.empty()) continue;
      if (log.mark_applied(ready[rng.next_below(ready.size())])) {
        ++ooo_applies;
      }
    } else {
      // A commit notice or heartbeat: a floor at, below or beyond the
      // window, under the current or a recent term.
      const std::uint64_t f =
          rng.next_below(4) == 0
              ? rng.next_below(next_slot + 4)
              : log.applied_floor() + rng.next_below(kWindow + 8);
      const std::uint64_t t = term - rng.next_below(std::min<std::uint64_t>(
                                         term, 3));
      // Expected flags: the previous step's scan, with every uncommitted
      // slot <= f under term t now committed.
      std::vector<int> want = scan.flags;
      for (std::uint64_t s = 1; s < want.size() && s <= f; ++s) {
        if (want[s] == 2 && log.entry(s)->batch.term == t) want[s] = 1;
      }
      log.learn_floor(f, t);
      scan = full_scan(log);
      ASSERT_EQ(scan.flags, want)
          << "learn_floor(" << f << ", " << t << ") at step " << steps;
      ++learns;
    }
    if (op < 88) scan = full_scan(log);  // learn steps scanned above
    ASSERT_EQ(log.ready(), scan.ready) << "step " << steps;
    ASSERT_EQ(slots_of(log.uncommitted()), scan.uncommitted)
        << "step " << steps;
  }
  // The history exercised every branch, many times over.
  EXPECT_GE(log.max_slot(), kSlots);
  EXPECT_GT(learns, 1'000u);
  EXPECT_GT(ooo_applies, 100u);
  EXPECT_GT(overrides, 50u);
  EXPECT_GT(moves, 50u);
  EXPECT_GT(reaccepts, 100u);
  EXPECT_GT(term, 20u);
}

}  // namespace
}  // namespace udc
