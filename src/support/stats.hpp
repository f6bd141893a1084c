// Small statistics helpers for the benches (geomean: the paper-style
// speedup summary of fig10_pta).
#pragma once

#include <cstddef>
#include <span>

namespace morph {

double mean(std::span<const double> xs);
double geomean(std::span<const double> xs);

}  // namespace morph
