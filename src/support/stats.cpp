#include "support/stats.hpp"

#include <cmath>

#include "support/check.hpp"

namespace morph {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) {
    MORPH_CHECK_MSG(x > 0.0, "geomean requires positive values");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

}  // namespace morph
