#include "sched/dispatch_index.hpp"

#include <limits>

#include "sched/bot_state.hpp"
#include "sched/individual.hpp"
#include "sched/sched_stats.hpp"
#include "util/assert.hpp"

namespace dg::sched {

bool DispatchIndex::is_dispatchable(const BotState& bot) const {
  // Mirrors SchedulerContext::pick_from(): a pending task always qualifies;
  // otherwise replication needs threshold > 1 and a task strictly below it.
  return bot.has_pending() || (threshold_ > 1 && bot.min_replicated_count() < threshold_);
}

void DispatchIndex::update(BagSet& set, bool& bit, bool member, BotState& bot) {
  if (bit == member) return;
  bit = member;
  if (member) {
    set.emplace(bot.id(), &bot);
  } else {
    set.erase(bot.id());
  }
}

void DispatchIndex::set_threshold(int threshold) {
  if (threshold == threshold_) return;
  threshold_ = threshold;
  if (stats_ != nullptr) ++stats_->index_rebuilds;
  for (const auto& [id, bot] : bots_) {
    update(dispatchable_, bot->index_membership_.dispatchable, is_dispatchable(*bot), *bot);
  }
}

void DispatchIndex::register_bot(BotState& bot) {
  DG_ASSERT_MSG(!bot.index_membership_.registered, "bot already registered in dispatch index");
  bots_.emplace(bot.id(), &bot);
  bot.index_membership_.registered = true;
  refresh(bot);
}

void DispatchIndex::unregister_bot(BotState& bot) {
  DG_ASSERT_MSG(bot.index_membership_.registered, "bot not registered in dispatch index");
  bots_.erase(bot.id());
  dispatchable_.erase(bot.id());
  no_running_.erase(bot.id());
  stale_.erase(bot.id());
  bot.index_membership_ = IndexMembership{};
}

IndexMembership DispatchIndex::indexed(const BotState& bot) const {
  return IndexMembership{bots_.contains(bot.id()), dispatchable_.contains(bot.id()),
                         no_running_.contains(bot.id()), stale_.contains(bot.id())};
}

void DispatchIndex::refresh(BotState& bot) {
  IndexMembership& bits = bot.index_membership_;
  if (!bits.registered) return;
  if (stats_ != nullptr) ++stats_->index_updates;
  update(dispatchable_, bits.dispatchable, is_dispatchable(bot), bot);
  update(no_running_, bits.no_running, bot.total_running() == 0, bot);
  update(stale_, bits.stale, bot.has_stale_queue_entries(), bot);
}

BotState* DispatchIndex::first_dispatchable() const noexcept {
  return dispatchable_.empty() ? nullptr : dispatchable_.begin()->second;
}

BotState* DispatchIndex::next_dispatchable_after(std::uint64_t after) const noexcept {
  if (dispatchable_.empty()) return nullptr;
  if (after >= std::numeric_limits<workload::BotId>::max()) {
    return dispatchable_.begin()->second;
  }
  auto it = dispatchable_.upper_bound(static_cast<workload::BotId>(after));
  if (it == dispatchable_.end()) it = dispatchable_.begin();
  return it->second;
}

BotState* DispatchIndex::first_no_running() const noexcept {
  return no_running_.empty() ? nullptr : no_running_.begin()->second;
}

void DispatchIndex::probe_stale(BotState& bot, const IndividualScheduler& individual) {
  // A stale bag has no dispatchable pool entry and, at every drain site, is
  // known not to be dispatchable at all (it precedes the first dispatchable
  // bag in the relevant scan order) — so the probe's only effect is popping
  // the stale entries the positional scan would have popped.
  TaskState* task = individual.pick(bot, threshold_);
  DG_ASSERT_MSG(task == nullptr, "stale bag unexpectedly yielded a task");
}

DispatchIndex::BagSet::iterator DispatchIndex::drain(BagSet::iterator it,
                                                     const IndividualScheduler& individual) {
  BotState& bot = *it->second;
  probe_stale(bot, individual);
  bot.index_membership_.stale = false;
  return stale_.erase(it);
}

void DispatchIndex::drain_stale_below(const IndividualScheduler& individual,
                                      workload::BotId limit) {
  auto it = stale_.begin();
  while (it != stale_.end() && it->first < limit) it = drain(it, individual);
}

void DispatchIndex::drain_stale_ring(const IndividualScheduler& individual, std::uint64_t after,
                                     workload::BotId until) {
  if (static_cast<std::uint64_t>(until) > after) {
    // No wrap: the scan visited ids in (after, until).
    auto it = stale_.upper_bound(static_cast<workload::BotId>(after));
    while (it != stale_.end() && it->first < until) it = drain(it, individual);
    return;
  }
  // Wrapped scan: ids > after, then ids < until from the front.
  if (after < std::numeric_limits<workload::BotId>::max()) {
    auto it = stale_.upper_bound(static_cast<workload::BotId>(after));
    while (it != stale_.end()) it = drain(it, individual);
  }
  auto it = stale_.begin();
  while (it != stale_.end() && it->first < until) it = drain(it, individual);
}

void DispatchIndex::drain_stale_all(const IndividualScheduler& individual) {
  auto it = stale_.begin();
  while (it != stale_.end()) it = drain(it, individual);
}

}  // namespace dg::sched
