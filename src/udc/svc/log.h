// In-memory replicated log: slots, terms, quorum, and DC2'-shaped
// out-of-order commit.
//
// One entry per slot, each holding a sealed batch (svc/wire).  The term
// rules are Raft-shaped and deliberately boring: a slot accepts a batch
// only at a term >= the one it last accepted, a committed slot is
// quorum-durable (every acker fdatasync'd it first), and a successor's
// majority sync therefore always sees every committed slot.  What is NOT
// boring is the apply rule: the service promises per-SESSION order, not
// total order, so a committed slot may apply before an earlier slot is
// even committed — exactly when it COMMUTES with every unapplied earlier
// slot (disjoint sessions and disjoint registers: no session can observe
// the inversion and no replica can diverge on state; this is the
// operational face of the paper's DC2' relaxation, which binds performing
// only where coordination demands it).  The applied FLOOR
// (every slot <= floor applied) is what travels in heartbeats and status
// reports; out-of-order applied slots above the floor ride commit notices
// explicitly.
//
// Query cost: slots are numbered from 1, and every slot at or below the
// applied floor is applied and therefore committed, so ready(),
// learn_floor(), uncommitted() and applied_above_floor() all start at the
// first slot above the floor.  Their cost follows the in-flight window
// (slots above the floor), not the history the replica has held.  The
// map itself still keeps every slot (compaction is ROADMAP item 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "udc/common/proc_set.h"
#include "udc/svc/wire.h"

namespace udc {

struct SvcLogEntry {
  SvcBatch batch;
  bool committed = false;
  bool applied = false;
  ProcSet acks;  // replicas whose DISK holds the batch (self included)
};

class ReplicatedLog {
 public:
  // Accepts `b` at b.slot iff b.slot >= 1 and the slot is empty or holds a
  // term <= b.term (idempotent re-accept of the same action included).
  // Returns true if the entry was stored/updated — the caller's cue to
  // durably log and ack.  A committed slot never changes its batch (a
  // higher-term overwrite of committed content would be the uniformity
  // violation the whole design exists to prevent; the checkers would catch
  // it, this check refuses it locally first).
  //
  // `known_committed` inverts the term rule for UNCOMMITTED local entries:
  // a batch some replica holds committed is quorum-durable truth, and a
  // higher-term local leftover at its slot is provably NOT committed (the
  // commit quorum intersects every sync majority) — the leftover yields,
  // whatever its term.  Without this, a failover sync can wedge: the
  // leader-elect refuses the committed content, the floor never passes the
  // slot, and every re-propose is nacked forever.  The caller stashes the
  // displaced batch and marks the slot committed afterwards.
  bool accept(const SvcBatch& b, bool known_committed = false);

  // Records a durable ack for `slot` from `from`.  Unknown slot: no-op.
  void ack(std::uint64_t slot, ProcessId from);

  // True iff `slot` holds an entry acked by a majority of `n`.
  bool has_quorum(std::uint64_t slot, int n) const;

  void mark_committed(std::uint64_t slot);

  // The DC2' rule.  A committed, unapplied slot `s` is applicable iff for
  // every unapplied slot j < s above the applied floor: the entry for j is
  // KNOWN here and commutes with s — disjoint sessions (no session can
  // observe the inversion) AND disjoint registers (the swapped applies
  // yield identical state, so replicas applying in different orders still
  // converge and acked versions survive a crash-and-replay).  An unknown
  // earlier slot might share either — refuse until catch-up fills it.
  bool applicable(std::uint64_t slot) const;

  // Marks `slot` applied and advances the floor past every contiguously
  // applied slot.  Returns true if this apply was out of slot order (some
  // earlier slot was still unapplied).
  bool mark_applied(std::uint64_t slot);

  // Committed-but-unapplied slots that pass applicable(), lowest first —
  // the apply loop drains these until empty.
  std::vector<std::uint64_t> ready() const;

  const SvcLogEntry* entry(std::uint64_t slot) const;
  // Slot holding `action`, if any (adoption dedup: a successor must not
  // re-seal an action it already holds).
  std::optional<std::uint64_t> slot_of(ActionId action) const;

  std::uint64_t applied_floor() const { return applied_floor_; }
  // Learns "every slot <= f is committed" from a term-`notice_term` commit
  // notice or heartbeat.  A floor is just a number: it vouches for the
  // CLUSTER'S content at those slots, not for whatever this replica
  // happens to hold.  Within one term a slot maps to exactly one batch
  // (a leader never reuses a slot within its own term), so a local entry
  // accepted under the SAME term provably matches the leader's — it is
  // marked committed.  An entry under a DIFFERENT term might be a
  // displaced leftover the cluster committed differently; it stays
  // uncommitted and catch-up sync re-teaches it with per-entry flags.
  void learn_floor(std::uint64_t f, std::uint64_t notice_term);

  std::uint64_t max_slot() const;
  std::size_t size() const { return slots_.size(); }
  std::uint64_t applied_count() const { return applied_count_; }

  // Out-of-order applied slots above the floor (for commit notices).
  std::vector<std::uint64_t> applied_above_floor() const;

  // Uncommitted entries, lowest slot first (re-propose / adoption offers).
  std::vector<const SvcLogEntry*> uncommitted() const;

 private:
  std::map<std::uint64_t, SvcLogEntry> slots_;
  std::map<ActionId, std::uint64_t> by_action_;
  std::uint64_t applied_floor_ = 0;
  std::uint64_t applied_count_ = 0;
};

}  // namespace udc
