// Wall-clock timing utilities.
#pragma once

#include <chrono>

namespace morph {

/// Monotonic stopwatch. Construction starts it; reset() restarts it.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace morph
