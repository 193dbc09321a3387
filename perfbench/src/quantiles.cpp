#include "quantiles.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

double tail_value(std::vector<double> values, std::size_t beyond,
                  double* percentile) {
  const std::size_t n = values.size();
  if (n <= beyond) {
    throw std::invalid_argument("tail_value: need more samples than `beyond`");
  }
  std::sort(values.begin(), values.end());
  *percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return values[n - beyond - 1];
}

}  // namespace perfbench
