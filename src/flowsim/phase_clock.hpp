// Wall-clock phase timer of the engines' event loops
// (EngineOptions::time_solver).
#pragma once

#include <chrono>

namespace nestflow {

/// Charges the wall time of consecutive loop phases to SimResult timer
/// fields. restart() starts a phase; lap(field) adds the seconds since the
/// last restart or lap to `field` and starts the next phase at the same
/// reading, so back-to-back laps tile a stretch of the loop with one clock
/// read per boundary. Time between a lap and the next restart is charged to
/// no phase. Constructed off, it reads no clock and writes no field.
class PhaseClock {
 public:
  explicit PhaseClock(bool on) noexcept : on_(on) {}

  void restart() noexcept {
    if (on_) last_ = Clock::now();
  }

  void lap(double& seconds) noexcept {
    if (!on_) return;
    const Clock::time_point now = Clock::now();
    seconds += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool on_;
  Clock::time_point last_{};
};

}  // namespace nestflow
