// Non-owning machine-transition callback: a (context, function-pointer) pair.
//
// Every availability source (AvailabilityProcess, OutageProcess, trace
// replay from grid/trace.hpp) reports up/down edges through one of these.
// The previous std::function<void(Machine&)> carried type-erasure dispatch
// and potential heap allocation into the per-transition hot path; a delegate
// is two words, trivially copyable, and calls through a plain function
// pointer. It does NOT own its target — the bound object or callable must
// outlive the delegate (in practice: the ExecutionEngine or a test-local
// lambda, both of which outlive the simulation run).
#pragma once

#include <cstddef>

namespace dg::grid {

class Machine;

class TransitionDelegate {
 public:
  constexpr TransitionDelegate() noexcept = default;
  /// Allows the established `start(nullptr, nullptr)` call sites.
  constexpr TransitionDelegate(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Binds a member function: `TransitionDelegate::to<&Engine::on_failure>(engine)`.
  template <auto Method, class T>
  [[nodiscard]] static TransitionDelegate to(T& object) noexcept {
    return TransitionDelegate(&object, [](void* ctx, Machine& machine) {
      (static_cast<T*>(ctx)->*Method)(machine);
    });
  }

  /// Binds a callable by reference (lvalue only — the delegate does not own
  /// it). Typical use: a named test lambda observing transitions.
  template <class F>
  [[nodiscard]] static TransitionDelegate bind(F& callable) noexcept {
    return TransitionDelegate(&callable,
                              [](void* ctx, Machine& machine) { (*static_cast<F*>(ctx))(machine); });
  }

  void operator()(Machine& machine) const { fn_(ctx_, machine); }
  [[nodiscard]] explicit operator bool() const noexcept { return fn_ != nullptr; }

 private:
  using Fn = void (*)(void*, Machine&);

  constexpr TransitionDelegate(void* ctx, Fn fn) noexcept : ctx_(ctx), fn_(fn) {}

  void* ctx_ = nullptr;
  Fn fn_ = nullptr;
};

}  // namespace dg::grid
