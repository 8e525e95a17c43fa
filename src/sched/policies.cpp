#include "sched/policies.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "util/assert.hpp"

namespace dg::sched {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFcfsExcl: return "FCFS-Excl";
    case PolicyKind::kFcfsShare: return "FCFS-Share";
    case PolicyKind::kRoundRobin: return "RR";
    case PolicyKind::kRoundRobinNrf: return "RR-NRF";
    case PolicyKind::kLongIdle: return "LongIdle";
    case PolicyKind::kRandom: return "Random";
    case PolicyKind::kShortestBagFirst: return "SJF-Bag";
    case PolicyKind::kPendingFirst: return "PF-RR";
  }
  return "?";
}

namespace {
std::string ascii_lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  return out;
}
}  // namespace

std::optional<PolicyKind> parse_policy_kind(std::string_view name) {
  static constexpr PolicyKind kAll[] = {
      PolicyKind::kFcfsExcl,   PolicyKind::kFcfsShare,        PolicyKind::kRoundRobin,
      PolicyKind::kRoundRobinNrf, PolicyKind::kLongIdle,      PolicyKind::kRandom,
      PolicyKind::kShortestBagFirst, PolicyKind::kPendingFirst};
  const std::string lower = ascii_lower(name);
  for (PolicyKind kind : kAll) {
    if (lower == ascii_lower(to_string(kind))) return kind;
  }
  return std::nullopt;
}

std::span<const PolicyKind> paper_policies() noexcept {
  static constexpr std::array<PolicyKind, 5> kPolicies = {
      PolicyKind::kFcfsExcl, PolicyKind::kFcfsShare, PolicyKind::kRoundRobin,
      PolicyKind::kRoundRobinNrf, PolicyKind::kLongIdle};
  return kPolicies;
}

std::unique_ptr<BagSelectionPolicy> make_policy(PolicyKind kind, std::uint64_t seed,
                                                std::pmr::memory_resource* mem) {
  switch (kind) {
    case PolicyKind::kFcfsExcl: return std::make_unique<FcfsExclPolicy>();
    case PolicyKind::kFcfsShare: return std::make_unique<FcfsSharePolicy>();
    case PolicyKind::kRoundRobin: return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::kRoundRobinNrf: return std::make_unique<RoundRobinNrfPolicy>();
    case PolicyKind::kLongIdle: return std::make_unique<LongIdlePolicy>(mem);
    case PolicyKind::kRandom: return std::make_unique<RandomPolicy>(seed);
    case PolicyKind::kShortestBagFirst: return std::make_unique<ShortestBagFirstPolicy>(mem);
    case PolicyKind::kPendingFirst: return std::make_unique<PendingFirstPolicy>();
  }
  throw std::invalid_argument("make_policy: unknown policy kind");
}

// --- FCFS-Excl ---

TaskState* FcfsExclPolicy::select(SchedulerContext& ctx) {
  // Exclusive allocation: only the oldest incomplete bag is ever consulted,
  // even when it has nothing dispatchable and younger bags do.
  BotState* front = ctx.bots->front();
  if (front == nullptr) return nullptr;
  return ctx.pick_from(*front);
}

// --- FCFS-Share ---

TaskState* FcfsSharePolicy::select(SchedulerContext& ctx) {
  // Bags are served fully (pending first, then replication up to the
  // threshold — the WQR-FT order) strictly in arrival order: a machine goes
  // to the next bag only when every older bag has no use for it. In
  // particular a resubmitted replica of a failed task of the first BoT has
  // priority over tasks of the second BoT, as the paper requires. The index
  // hands over the oldest bag with dispatchable work directly; the stale
  // bags the arrival-order scan would have probed first are drained so the
  // resubmission pools prune exactly as they did under that scan.
  BotState* bot = ctx.index->first_dispatchable();
  if (bot == nullptr) {
    ctx.index->drain_stale_all(*ctx.individual);
    return nullptr;
  }
  ctx.index->drain_stale_below(*ctx.individual, bot->id());
  TaskState* task = ctx.pick_from(*bot);
  DG_ASSERT_MSG(task != nullptr, "dispatchable bag yielded no task");
  return task;
}

// --- RR ---

TaskState* RoundRobinPolicy::round_robin_pick(SchedulerContext& ctx) {
  // Bags are in arrival order with increasing ids; resume after the cursor.
  // Stale bags the circular scan would have passed over are drained so the
  // resubmission pools prune exactly as they did under that scan.
  BotState* bot = ctx.index->next_dispatchable_after(cursor_);
  if (bot == nullptr) {
    ctx.index->drain_stale_all(*ctx.individual);
    return nullptr;
  }
  ctx.index->drain_stale_ring(*ctx.individual, cursor_, bot->id());
  TaskState* task = ctx.pick_from(*bot);
  DG_ASSERT_MSG(task != nullptr, "dispatchable bag yielded no task");
  cursor_ = bot->id();
  return task;
}

TaskState* RoundRobinPolicy::select(SchedulerContext& ctx) { return round_robin_pick(ctx); }

// --- RR-NRF ---

TaskState* RoundRobinNrfPolicy::select(SchedulerContext& ctx) {
  // Bags with no running task instance first; the circular cursor is
  // suspended (not advanced) while serving them. An incomplete bag with no
  // running replica always has a pending task (every zero-replica incomplete
  // task is either unstarted or queued for resubmission), so the oldest such
  // bag is served unconditionally.
  if (BotState* bot = ctx.index->first_no_running()) {
    TaskState* task = ctx.pick_from(*bot);
    DG_ASSERT_MSG(task != nullptr, "no-running bag must have pending work");
    return task;
  }
  return round_robin_pick(ctx);
}

// --- LongIdle ---

void LongIdlePolicy::on_bot_arrival(BotState& bot, double /*now*/) {
  BagIndex& index = bags_[bot.id()];
  index.bot = &bot;
  // One sentinel covers all never-started tasks: each has frozen_idle = 0 and
  // idle_since = arrival, hence the shared key -arrival_time.
  index.idle.push(Entry{-bot.arrival_time(), nullptr});
}

void LongIdlePolicy::on_bot_completion(BotState& bot, double /*now*/) { bags_.erase(bot.id()); }

void LongIdlePolicy::on_task_transition(TaskState& task, double /*now*/) {
  if (task.completed()) return;
  auto it = bags_.find(task.bot().id());
  if (it == bags_.end()) return;
  BagIndex& index = it->second;
  if (task.running_replicas() == 0) {
    index.idle.push(Entry{task.frozen_idle() - task.idle_since(), &task});
  } else {
    index.frozen.push(Entry{task.frozen_idle(), &task});
  }
}

double LongIdlePolicy::bag_priority(BagIndex& index, double now) {
  double best = -std::numeric_limits<double>::infinity();
  // Idle side: entry valid iff the task is still idle with an unchanged key.
  while (!index.idle.empty()) {
    const Entry& top = index.idle.top();
    if (top.task == nullptr) {
      if (index.bot->peek_unstarted() != nullptr) {
        best = std::max(best, top.key + now);
        break;
      }
      index.idle.pop();
      continue;
    }
    const TaskState& task = *top.task;
    const bool valid = !task.completed() && task.running_replicas() == 0 &&
                       task.frozen_idle() - task.idle_since() == top.key;
    if (valid) {
      best = std::max(best, top.key + now);
      break;
    }
    index.idle.pop();
  }
  // Frozen side: entry valid iff the task is running with an unchanged key.
  while (!index.frozen.empty()) {
    const Entry& top = index.frozen.top();
    const TaskState& task = *top.task;
    const bool valid =
        !task.completed() && task.running_replicas() > 0 && task.frozen_idle() == top.key;
    if (valid) {
      best = std::max(best, top.key);
      break;
    }
    index.frozen.pop();
  }
  return best;
}

TaskState* LongIdlePolicy::select(SchedulerContext& ctx) {
  // Rank bags by the largest waiting time among their incomplete tasks;
  // ties (and equal priorities) resolve to the older bag. The probe order
  // over the ranked list matches the historical full-sort implementation,
  // so the pick_from calls prune the per-bag pools identically — LongIdle
  // needs none of the dispatch index's stale-drain machinery (and never
  // touches ctx.bots / ctx.index; bags_ is its own active-bag view).
  ranked_.clear();
  for (auto& [id, index] : bags_) {
    ranked_.push_back(Ranked{bag_priority(index, ctx.now), id, index.bot});
  }
  // Priority descending, then bag id ascending: the order a stable sort by
  // priority alone gives over bags_'s id order, without its temporary buffer.
  std::sort(ranked_.begin(), ranked_.end(), [](const Ranked& a, const Ranked& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.id < b.id;
  });
  for (const Ranked& entry : ranked_) {
    if (TaskState* task = ctx.pick_from(*entry.bot)) return task;
  }
  return nullptr;
}

// --- PF-RR (hybrid extension) ---

TaskState* PendingFirstPolicy::select(SchedulerContext& ctx) {
  // Deliberately a positional scan, not an index walk: the probing peeks
  // prune the resubmission pools of every bag visited, and PF-RR's
  // pending-first pass visits bags an index jump would skip. PF-RR is an
  // extension outside the paper's policy set and off the hot-path suites,
  // so it keeps the probe-everything behaviour verbatim.
  //
  // Pass 1: pending work (priority resubmissions, then unstarted tasks)
  // strictly in bag-arrival order.
  for (BotState* bot : *ctx.bots) {
    if (bot->peek_resubmission() != nullptr || bot->peek_unstarted() != nullptr ||
        bot->peek_requeued() != nullptr) {
      return ctx.pick_from(*bot);
    }
  }
  // Pass 2: every task everywhere has a replica — replicate, but spread
  // across bags with a persistent circular cursor instead of favouring the
  // oldest bag.
  const std::size_t n = ctx.bots->size();
  if (n == 0) return nullptr;
  std::vector<BotState*> bots;
  bots.reserve(n);
  for (BotState* bot : *ctx.bots) bots.push_back(bot);
  std::size_t start = 0;
  while (start < n && static_cast<std::uint64_t>(bots[start]->id()) <= replication_cursor_) {
    ++start;
  }
  if (start == n) start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    BotState* bot = bots[(start + i) % n];
    if (TaskState* task = ctx.pick_from(*bot)) {
      replication_cursor_ = bot->id();
      return task;
    }
  }
  return nullptr;
}

// --- SJF-Bag (knowledge-based baseline) ---

void ShortestBagFirstPolicy::on_bot_arrival(BotState& bot, double /*now*/) {
  order_.emplace(std::pair{bot.remaining_work(), bot.id()}, &bot);
  keys_.emplace(bot.id(), bot.remaining_work());
}

void ShortestBagFirstPolicy::on_bot_completion(BotState& bot, double /*now*/) {
  auto it = keys_.find(bot.id());
  DG_ASSERT_MSG(it != keys_.end(), "SJF-Bag missing bag key (arrival hook not called?)");
  order_.erase({it->second, bot.id()});
  keys_.erase(it);
}

void ShortestBagFirstPolicy::on_task_transition(TaskState& task, double /*now*/) {
  if (!task.completed()) return;  // remaining_work only changes at completion
  BotState& bot = task.bot();
  const auto it = keys_.find(bot.id());
  if (it == keys_.end()) return;
  const double work = bot.remaining_work();
  if (work == it->second) return;
  order_.erase({it->second, bot.id()});
  order_.emplace(std::pair{work, bot.id()}, &bot);
  it->second = work;
}

TaskState* ShortestBagFirstPolicy::select(SchedulerContext& ctx) {
  // Bags ordered by remaining work ascending, ties to the older bag — the
  // map key is exactly that order, maintained incrementally.
  for (const auto& [key, bot] : order_) {
    if (TaskState* task = ctx.pick_from(*bot)) return task;
  }
  return nullptr;
}

// --- Random ---

TaskState* RandomPolicy::select(SchedulerContext& ctx) {
  // Deliberately a probe-every-bag scan, not an index walk: probing every
  // bag prunes every resubmission pool each select, and no range-limited
  // drain reproduces that. Random is a baseline outside the paper's policy
  // set and off the hot-path suites, so it keeps the O(B) loop verbatim.
  std::vector<BotState*> dispatchable;
  dispatchable.reserve(ctx.bots->size());
  for (BotState* bot : *ctx.bots) {
    if (ctx.pick_from(*bot) != nullptr) dispatchable.push_back(bot);
  }
  if (dispatchable.empty()) return nullptr;
  const auto choice =
      static_cast<std::size_t>(stream_.uniform_int(0, dispatchable.size() - 1));
  return ctx.pick_from(*dispatchable[choice]);
}

}  // namespace dg::sched
