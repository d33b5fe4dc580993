// Timing utilities used by the pipeline's latency breakdown (paper
// Figure 15), the benchmark harness, and the service's log timestamps.

#ifndef TSEXPLAIN_COMMON_TIMER_H_
#define TSEXPLAIN_COMMON_TIMER_H_

#include <chrono>

namespace tsexplain {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/Restart, in milliseconds.
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  /// Elapsed time in seconds.
  double ElapsedSeconds() const { return ElapsedMs() / 1000.0; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Wall-clock milliseconds since the Unix epoch, for log-record and
/// metrics-history timestamps. Every latency is measured on the steady
/// clock (Timer); this is the only wall-clock read.
inline double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Adds the scope's elapsed milliseconds to `*sink` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() { *sink_ += timer_.ElapsedMs(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  Timer timer_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_COMMON_TIMER_H_
