// Microbenchmarks: DES kernel, RNG, and statistics hot paths.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "des/queue_policy.hpp"
#include "des/simulator.hpp"
#include "rng/random_stream.hpp"
#include "stats/online_stats.hpp"
#include "stats/quantiles.hpp"

namespace {

void BM_ScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dg::des::Simulator sim;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 100000), [&sum] { ++sum; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_EventChain(benchmark::State& state) {
  // Self-rescheduling event: measures per-event kernel overhead without
  // heap pressure from a deep queue.
  for (auto _ : state) {
    dg::des::Simulator sim;
    std::uint64_t count = 0;
    std::function<void()> chain = [&] {
      if (++count < 100000) sim.schedule_after(1.0, [&chain] { chain(); });
    };
    sim.schedule_after(1.0, [&chain] { chain(); });
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_EventChain);

void BM_CancelHeavy(benchmark::State& state) {
  // Half the events get cancelled — exercises lazy deletion.
  for (auto _ : state) {
    dg::des::Simulator sim;
    std::vector<dg::des::EventHandle> handles;
    handles.reserve(50000);
    std::uint64_t sum = 0;
    for (int i = 0; i < 100000; ++i) {
      auto handle = sim.schedule_at(static_cast<double>(i), [&sum] { ++sum; });
      if (i % 2 == 0) handles.push_back(handle);
    }
    for (auto& handle : handles) handle.cancel();
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_CancelHeavy);

void BM_HandleChurn(benchmark::State& state) {
  // Schedule-then-cancel with a small live window: isolates slab free-list
  // recycling and generation bumping from heap ordering costs.
  for (auto _ : state) {
    dg::des::Simulator sim;
    std::uint64_t sum = 0;
    std::vector<dg::des::EventHandle> window;
    for (int i = 0; i < 100000; ++i) {
      window.push_back(sim.schedule_at(1e9 + i, [&sum] { ++sum; }));
      if (window.size() == 64) {
        for (auto& handle : window) handle.cancel();
        window.clear();
      }
    }
    sim.schedule_at(2e9, [&sim] { sim.stop(); });
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_HandleChurn);

void BM_ArenaWarmStart(benchmark::State& state) {
  // One simulator reused across bursts: after the first burst the arena is
  // warm and the hot path performs zero allocations (arena_slabs stays flat).
  dg::des::Simulator sim;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_after(static_cast<double>((i * 7919) % 1000 + 1), [&sum] { ++sum; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sum);
  state.counters["slab_allocs"] = static_cast<double>(sim.stats().arena_slabs);
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ArenaWarmStart);

template <typename Q>
void BM_QueueHold(benchmark::State& state) {
  // Classic hold model at fixed depth: pop the minimum, push a successor a
  // pseudo-random offset past it. Steady-state queue population stays at
  // range(0), so the depth sweep isolates how each backend's per-operation
  // cost scales with pending-entry count (the 4-ary heap pays log4(depth)
  // per pop; the calendar queue amortizes sorted-run refills).
  const auto depth = static_cast<std::size_t>(state.range(0));
  std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
  auto next_offset = [&mix] {
    mix += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = mix;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<double>((z ^ (z >> 31)) % 100000) / 10.0;
  };
  auto entry_at = [](double time, std::uint64_t seq) {
    return dg::des::QueueEntry::make(
        time, seq, static_cast<std::uint32_t>(seq & dg::des::QueueEntry::kMaxSlot));
  };
  Q queue;
  std::uint64_t seq = 0;
  double now = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(entry_at(now + next_offset(), seq));
    ++seq;
  }
  for (auto _ : state) {
    const dg::des::QueueEntry& top = queue.top();
    now = top.time();
    queue.pop();
    queue.push(entry_at(now + next_offset(), seq));
    ++seq;
  }
  benchmark::DoNotOptimize(queue.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_QueueHold, dg::des::FourAryHeapQueue)
    ->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK_TEMPLATE(BM_QueueHold, dg::des::CalendarQueue)
    ->Arg(256)->Arg(4096)->Arg(65536);

void BM_Xoshiro256(benchmark::State& state) {
  dg::rng::Xoshiro256 gen(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro256);

void BM_WeibullSample(benchmark::State& state) {
  dg::rng::RandomStream stream(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.weibull(0.7, 88200.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeibullSample);

void BM_NormalSample(benchmark::State& state) {
  dg::rng::RandomStream stream(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.normal(1800.0, 300.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NormalSample);

void BM_OnlineStatsAdd(benchmark::State& state) {
  dg::stats::OnlineStats stats;
  double x = 0.0;
  for (auto _ : state) {
    stats.add(x += 1.5);
  }
  benchmark::DoNotOptimize(stats.mean());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineStatsAdd);

void BM_StudentTQuantile(benchmark::State& state) {
  double df = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dg::stats::student_t_quantile(0.975, df));
    df = df < 200.0 ? df + 1.0 : 2.0;
  }
}
BENCHMARK(BM_StudentTQuantile);

}  // namespace

BENCHMARK_MAIN();
