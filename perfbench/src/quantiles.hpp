// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the middle two for an even count); 0 for no samples.
double median(std::vector<double> values);

double sum(const std::vector<double>& values);

/// Arithmetic mean; 0 for no samples.
double mean(const std::vector<double>& values);

/// The highest order statistic that still has at least `beyond` samples
/// above it: the (n - beyond)-th smallest of n. `percentile` receives its
/// rank as a percentage, 100 * (n - beyond) / n. Requires n > beyond.
double tail_value(std::vector<double> values, std::size_t beyond,
                  double* percentile);

}  // namespace perfbench
