#include "udc/svc/log.h"

#include <algorithm>

namespace udc {

namespace {

bool commute(const SvcBatch& a, const SvcBatch& b) {
  // Two batches may swap apply order only if NO observable state is shared:
  // disjoint sessions (or per-session order breaks) AND disjoint registers
  // (or replicas applying in different orders diverge on final values and
  // report crash-unstable versions).  Batches are small (bounded by the
  // seal cap); sets beat anything fancier at this size.
  std::set<std::uint64_t> sa;
  std::set<std::int32_t> ra;
  for (const auto& op : a.ops) {
    sa.insert(op.session);
    ra.insert(op.reg);
  }
  for (const auto& op : b.ops) {
    if (sa.count(op.session) || ra.count(op.reg)) return false;
  }
  return true;
}

}  // namespace

bool ReplicatedLog::accept(const SvcBatch& b, bool known_committed) {
  // Slot 0 is never sealed; refusing it keeps "every slot <= the floor is
  // applied" true from the start, which the frontier queries rely on.
  if (b.slot == 0) return false;
  // An action re-sealed at a NEW slot (failover adoption) obsoletes any
  // uncommitted entry still holding it at an old slot: left in place, that
  // stale entry could never commit (its action commits elsewhere) and would
  // block the applied floor forever.  A committed old slot instead refuses
  // the move — the action already has the home the cluster agreed on.
  auto prev = by_action_.find(b.action);
  if (prev != by_action_.end() && prev->second != b.slot) {
    auto pt = slots_.find(prev->second);
    if (pt != slots_.end()) {
      if (pt->second.committed || pt->second.applied) return false;
      slots_.erase(pt);
    }
    by_action_.erase(prev);
  }
  auto it = slots_.find(b.slot);
  if (it != slots_.end()) {
    SvcLogEntry& e = it->second;
    if (e.committed || e.applied) {
      // Re-accept of committed content with the same action is an
      // idempotent re-teach; different content is refused.
      return e.batch.action == b.action;
    }
    if (b.term < e.batch.term && !known_committed) return false;
    if (e.batch.action != b.action) {
      by_action_.erase(e.batch.action);
      by_action_[b.action] = b.slot;
    }
    if (e.batch.action != b.action || e.batch.term != b.term) {
      // An ack vouches for ONE (action, term) acceptance.  Acks recorded
      // under an older term may cover a different acceptance the acker has
      // since replaced — counting them toward quorum after a re-seal would
      // commit on a fake majority (two actions could commit at one slot at
      // different replicas).  Content or term changed: all acks are void.
      e.acks = ProcSet();
    }
    e.batch = b;
    return true;
  }
  SvcLogEntry e;
  e.batch = b;
  by_action_[b.action] = b.slot;
  slots_.emplace(b.slot, std::move(e));
  return true;
}

void ReplicatedLog::ack(std::uint64_t slot, ProcessId from) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return;
  it->second.acks.insert(from);
}

bool ReplicatedLog::has_quorum(std::uint64_t slot, int n) const {
  auto it = slots_.find(slot);
  return it != slots_.end() && it->second.acks.size() * 2 > n;
}

void ReplicatedLog::mark_committed(std::uint64_t slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) it->second.committed = true;
}

bool ReplicatedLog::applicable(std::uint64_t slot) const {
  auto it = slots_.find(slot);
  if (it == slots_.end() || !it->second.committed || it->second.applied) {
    return false;
  }
  for (std::uint64_t j = applied_floor_ + 1; j < slot; ++j) {
    auto jt = slots_.find(j);
    if (jt == slots_.end()) return false;  // unknown gap: wait for catch-up
    if (jt->second.applied) continue;
    if (!commute(jt->second.batch, it->second.batch)) return false;
  }
  return true;
}

bool ReplicatedLog::mark_applied(std::uint64_t slot) {
  auto it = slots_.find(slot);
  if (it == slots_.end() || it->second.applied) return false;
  it->second.applied = true;
  it->second.committed = true;
  ++applied_count_;
  bool out_of_order = slot != applied_floor_ + 1;
  for (;;) {
    auto nt = slots_.find(applied_floor_ + 1);
    if (nt == slots_.end() || !nt->second.applied) break;
    ++applied_floor_;
  }
  return out_of_order;
}

std::vector<std::uint64_t> ReplicatedLog::ready() const {
  std::vector<std::uint64_t> out;
  for (auto it = slots_.upper_bound(applied_floor_); it != slots_.end();
       ++it) {
    const SvcLogEntry& e = it->second;
    if (e.committed && !e.applied && applicable(it->first)) {
      out.push_back(it->first);
    }
  }
  return out;
}

const SvcLogEntry* ReplicatedLog::entry(std::uint64_t slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second;
}

std::optional<std::uint64_t> ReplicatedLog::slot_of(ActionId action) const {
  auto it = by_action_.find(action);
  if (it == by_action_.end()) return std::nullopt;
  return it->second;
}

void ReplicatedLog::learn_floor(std::uint64_t f, std::uint64_t notice_term) {
  for (auto it = slots_.upper_bound(applied_floor_);
       it != slots_.end() && it->first <= f; ++it) {
    if (it->second.batch.term == notice_term) it->second.committed = true;
  }
}

std::uint64_t ReplicatedLog::max_slot() const {
  return slots_.empty() ? 0 : slots_.rbegin()->first;
}

std::vector<std::uint64_t> ReplicatedLog::applied_above_floor() const {
  std::vector<std::uint64_t> out;
  for (auto it = slots_.upper_bound(applied_floor_); it != slots_.end();
       ++it) {
    if (it->second.applied) out.push_back(it->first);
  }
  return out;
}

std::vector<const SvcLogEntry*> ReplicatedLog::uncommitted() const {
  std::vector<const SvcLogEntry*> out;
  for (auto it = slots_.upper_bound(applied_floor_); it != slots_.end();
       ++it) {
    if (!it->second.committed) out.push_back(&it->second);
  }
  return out;
}

}  // namespace udc
