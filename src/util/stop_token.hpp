// Cooperative cancellation with optional deadlines.
//
// A StopSource owns the shared stop state; StopTokens are cheap copyable
// views of it. Long-running work (SaimSolver::solve, backend run_batch,
// the pbit anneal loop) polls token.stop_requested() at coarse-grained
// points — once per outer iteration or per sweep chunk — so the Monte-Carlo
// hot loop never pays for cancellation support. A stop fires either because
// request_stop() was called (explicit cancel) or because the wall-clock
// deadline passed; cancelled() distinguishes the two so callers can report
// Status::kCancelled vs Status::kDeadline.
//
// Not std::stop_token: we need the deadline semantics fused in, and a
// default-constructed "never stops" token that costs one null check.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>

namespace saim::util {

/// Sweeps between two stop polls in the Monte-Carlo anneal loops: coarse
/// enough that the poll costs nothing measurable, fine enough that a
/// deadline overshoots by at most 64 sweeps.
inline constexpr std::size_t kStopPollInterval = 64;

namespace detail {
struct StopState {
  std::atomic<bool> stop_requested{false};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
};
}  // namespace detail

class StopToken {
 public:
  /// A token that can never stop; stop_requested() is one null check.
  StopToken() = default;

  /// True when this token is connected to a StopSource at all.
  [[nodiscard]] bool possible() const noexcept { return state_ != nullptr; }

  /// True once request_stop() was called on the source.
  [[nodiscard]] bool cancelled() const noexcept {
    return state_ && state_->stop_requested.load(std::memory_order_relaxed);
  }

  /// True once the source's deadline (if any) has passed.
  [[nodiscard]] bool deadline_expired() const noexcept {
    return state_ && state_->has_deadline &&
           std::chrono::steady_clock::now() >= state_->deadline;
  }

  /// The polling entry point: explicit cancel OR expired deadline.
  [[nodiscard]] bool stop_requested() const noexcept {
    return cancelled() || deadline_expired();
  }

 private:
  friend class StopSource;
  explicit StopToken(std::shared_ptr<const detail::StopState> state) noexcept
      : state_(std::move(state)) {}

  std::shared_ptr<const detail::StopState> state_;
};

class StopSource {
 public:
  StopSource() : state_(std::make_shared<detail::StopState>()) {}

  /// A source whose tokens additionally stop once `deadline` passes.
  static StopSource with_deadline(
      std::chrono::steady_clock::time_point deadline) {
    StopSource s;
    s.state_->has_deadline = true;
    s.state_->deadline = deadline;
    return s;
  }

  /// Convenience: deadline `timeout` from now.
  static StopSource after(std::chrono::steady_clock::duration timeout) {
    return with_deadline(std::chrono::steady_clock::now() + timeout);
  }

  void request_stop() noexcept {
    state_->stop_requested.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool stop_requested() const noexcept {
    return state_->stop_requested.load(std::memory_order_relaxed);
  }

  [[nodiscard]] StopToken token() const noexcept { return StopToken(state_); }

 private:
  std::shared_ptr<detail::StopState> state_;
};

}  // namespace saim::util
