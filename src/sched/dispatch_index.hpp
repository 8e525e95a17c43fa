// Incremental dispatch-eligibility index over the active bags.
//
// The bag-selection policies used to answer "which bags can accept a machine
// right now?" by probing every active bag on every dispatch — O(B) per
// machine even when the answer is the same bag as last time. This index
// maintains the memberships the policies actually query, keyed by bag id
// (== arrival order, since bag ids are assigned monotonically):
//
//   dispatchable : the bag can produce a task under the current replication
//                  threshold R, i.e. has_pending() || (R > 1 &&
//                  min_replicated_count() < R). Exactly the condition under
//                  which SchedulerContext::pick_from() returns non-null.
//   no_running   : total_running() == 0. Every incomplete bag with no
//                  running replica necessarily has a pending task, so
//                  no_running is a subset of dispatchable.
//   stale        : a resubmission/requeue pool is non-empty but holds no
//                  dispatchable entry (see drain_stale_* below).
//
// BotState calls refresh() from its own mutators (replica start/stop, task
// completion, pool pushes), so the index is current by the time a policy
// runs — including after sibling-replica stops of completed tasks, which
// never reach the policy observer hooks. Each bag carries its membership
// bits (IndexMembership, on the BotState): refresh() recomputes them and
// touches an ordered set only when a bit flips, so the common refresh —
// nothing changed — costs no set operation. The threshold is pushed in by
// the scheduler at the top of each trigger; a change re-evaluates every
// bag's dispatchable bit (rare: only dynamic-replication runs change it).
//
// Stale bags and the drain_stale_* calls: the per-bag resubmission queues
// are pruned lazily — a probe (IndividualScheduler::pick) pops invalid
// front entries at probe time, and an entry that was stale while no probe
// happened to look REVALIDATES, keeping its original priority position, if
// its task fails again. Which entries survive therefore depends on exactly
// which bags each select probed. The positional scans probed every
// non-dispatchable bag on the way to the winner; the index-based policies
// jump straight to the winner, so they must replay those probes on the bags
// the scan would have visited — that is the drain_stale_* family. Only bags
// whose pools hold stale entries are tracked (probing a bag with empty or
// all-valid pools pops nothing), which keeps the replay amortized O(1):
// every pop is paid for by an earlier push.
//
// All sets are std::map<BotId, BotState*> so iteration order is bag-arrival
// order — the determinism contract shared with ActiveBotList. The drain and
// rebuild paths flip the bits along with the sets they edit.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>

#include "sched/bot_state.hpp"
#include "workload/bot.hpp"

namespace dg::sched {

class IndividualScheduler;
struct SchedStats;

class DispatchIndex {
 public:
  /// The membership maps allocate from `mem` (default: global heap); pass a
  /// per-replication pool to recycle their nodes across runs.
  explicit DispatchIndex(std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : bots_(mem), dispatchable_(mem), no_running_(mem), stale_(mem) {}
  DispatchIndex(const DispatchIndex&) = delete;
  DispatchIndex& operator=(const DispatchIndex&) = delete;

  /// Optional stats sink for index_updates / index_rebuilds counters.
  void set_stats(SchedStats* stats) noexcept { stats_ = stats; }

  /// Sets the replication threshold the dispatchable set is computed
  /// against. A change recomputes every bag's dispatchable membership.
  void set_threshold(int threshold);
  [[nodiscard]] int threshold() const noexcept { return threshold_; }

  /// Starts tracking `bot` and computes its memberships.
  void register_bot(BotState& bot);
  /// Stops tracking `bot` (call at bag completion).
  void unregister_bot(BotState& bot);

  /// `bot`'s presence in each ordered set, looked up in the sets themselves
  /// (O(log B)). Equals bot.index_membership() whenever the index is
  /// consistent; for tests and audits.
  [[nodiscard]] IndexMembership indexed(const BotState& bot) const;

  /// Recomputes `bot`'s memberships from its current state. No-op for
  /// unregistered bags (BotState mutators may still fire during the
  /// completion teardown, after unregister_bot).
  void refresh(BotState& bot);

  // --- queries (all O(log B) or better; arrival order throughout) ---

  /// Earliest-arrived dispatchable bag, or nullptr.
  [[nodiscard]] BotState* first_dispatchable() const noexcept;
  /// Earliest-arrived dispatchable bag with id > `after`, wrapping to the
  /// front — the round-robin successor. nullptr iff no bag is dispatchable.
  [[nodiscard]] BotState* next_dispatchable_after(std::uint64_t after) const noexcept;
  /// Earliest-arrived bag with no running replica, or nullptr.
  [[nodiscard]] BotState* first_no_running() const noexcept;

  // --- stale-queue replay (see file comment) ---

  /// Probes every stale bag with id < `limit`, replaying the arrival-order
  /// scan up to (excluding) the selected bag.
  void drain_stale_below(const IndividualScheduler& individual, workload::BotId limit);
  /// Probes every stale bag the round-robin scan visits between the cursor
  /// and the selected bag: ids in (after, until), wrapping past the end.
  void drain_stale_ring(const IndividualScheduler& individual, std::uint64_t after,
                        workload::BotId until);
  /// Probes every stale bag — what a scan that found nothing dispatchable
  /// did on the way to returning null.
  void drain_stale_all(const IndividualScheduler& individual);

 private:
  using BagSet = std::pmr::map<workload::BotId, BotState*>;

  [[nodiscard]] bool is_dispatchable(const BotState& bot) const;
  /// Sets one membership bit of `bot` and mirrors a flip into `set`.
  static void update(BagSet& set, bool& bit, bool member, BotState& bot);
  void probe_stale(BotState& bot, const IndividualScheduler& individual);
  /// Probes the stale bag at `it` and removes it from stale_.
  BagSet::iterator drain(BagSet::iterator it, const IndividualScheduler& individual);

  BagSet bots_;          // registered bags (walked by the threshold rebuild)
  BagSet dispatchable_;  // can accept a machine
  BagSet no_running_;    // total_running() == 0
  BagSet stale_;         // has_stale_queue_entries()
  int threshold_ = 0;
  SchedStats* stats_ = nullptr;
};

}  // namespace dg::sched
