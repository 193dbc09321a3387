// Per-client delivery reliability as the failure-aware selectors (Oort, DPP,
// FedLECC, HiCS) keep it: a score multiplier in (0, 1] that decays on every
// reported failure and recovers on success.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/net/wire.hpp"

namespace haccs::fl {

class ReliabilityTracker {
 public:
  /// A failure multiplies reliability by `failure_factor`, never below
  /// `min_reliability`.
  ReliabilityTracker(double failure_factor, double min_reliability)
      : failure_factor_(failure_factor), min_reliability_(min_reliability) {
    if (failure_factor_ <= 0.0 || failure_factor_ > 1.0) {
      throw std::invalid_argument("ReliabilityTracker: bad failure_factor");
    }
  }

  /// Tracks `clients` clients, all fully reliable.
  void reset(std::size_t clients) { reliability_.assign(clients, 1.0); }
  /// Unknown ids read 1.0.
  double of(std::size_t client) const {
    return client < reliability_.size() ? reliability_[client] : 1.0;
  }
  void record_failure(std::size_t client) {
    if (client >= reliability_.size()) return;
    reliability_[client] =
        std::max(min_reliability_, reliability_[client] * failure_factor_);
  }
  /// Recovers half the gap to 1; 1.0 stays exactly 1.0.
  void record_success(std::size_t client) {
    if (client >= reliability_.size()) return;
    reliability_[client] += 0.5 * (1.0 - reliability_[client]);
  }

  /// The selectors' state-blob field: one f64 array, always the blob's last.
  void save(net::WireWriter& w) const { w.f64_array(reliability_); }
  /// Reads what save() wrote, which must end the blob. A length mismatch or
  /// trailing bytes throw std::runtime_error and change nothing, so a bad
  /// blob is rejected whole when this is loaded after the other fields.
  void load(net::WireReader& r) {
    auto values = r.f64_array();
    r.expect_exhausted();
    if (values.size() != reliability_.size()) {
      throw std::runtime_error("ReliabilityTracker: state population mismatch");
    }
    reliability_ = std::move(values);
  }

 private:
  double failure_factor_;
  double min_reliability_;
  std::vector<double> reliability_;
};

}  // namespace haccs::fl
