// Adaptive parallelism (paper Sec. 7.4).
//
// Morph algorithms' available parallelism changes over the run (Fig. 2), so
// a fixed kernel configuration wastes the machine early or thrashes it with
// conflicts late. The paper's scheme: start with a modest threads-per-block,
// double it on each of the first few iterations, and set the block count
// once per run proportional to the input size (3x..50x the SM count).
#pragma once

#include <algorithm>
#include <cstdint>

#include "gpu/config.hpp"

namespace morph::core {

class AdaptiveLauncher {
 public:
  /// `initial_tpb` threads per block, doubled after each of the first
  /// `doubling_iters` calls to next(), capped at `max_tpb`. `sm_factor`
  /// blocks per SM (paper: 3..50 depending on algorithm and input).
  AdaptiveLauncher(std::uint32_t initial_tpb, std::uint32_t doubling_iters,
                   double sm_factor, std::uint32_t max_tpb = 1024)
      : tpb_(initial_tpb),
        max_tpb_(max_tpb),
        doubling_left_(doubling_iters),
        sm_factor_(sm_factor) {
    MORPH_CHECK(initial_tpb >= 1 && initial_tpb <= max_tpb);
    MORPH_CHECK(sm_factor > 0.0);
  }

  /// Configuration for the next kernel invocation. The block count is fixed
  /// per run (set on the first call from the device's SM count); only the
  /// threads-per-block adapts.
  gpu::LaunchConfig next(const gpu::DeviceConfig& dev) {
    if (blocks_ == 0) {
      blocks_ = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(sm_factor_ * dev.num_sms));
    }
    gpu::LaunchConfig lc{blocks_, tpb_};
    if (doubling_left_ > 0) {
      --doubling_left_;
      tpb_ = std::min(max_tpb_, tpb_ * 2);
    }
    return lc;
  }

  std::uint32_t blocks() const { return blocks_; }

 private:
  std::uint32_t tpb_;
  std::uint32_t max_tpb_;
  std::uint32_t doubling_left_;
  double sm_factor_;
  std::uint32_t blocks_ = 0;
};

/// Fixed configuration helper for the non-adaptive ablation arm.
inline gpu::LaunchConfig fixed_config(const gpu::DeviceConfig& dev,
                                      double sm_factor, std::uint32_t tpb) {
  return {std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(sm_factor * dev.num_sms)),
          tpb};
}

}  // namespace morph::core
