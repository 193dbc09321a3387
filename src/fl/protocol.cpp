#include "src/fl/protocol.hpp"

#include <stdexcept>
#include <string>

namespace haccs::fl {

net::UpdateKind to_update_kind(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::None: return net::UpdateKind::Dense;
    case CompressionKind::TopK: return net::UpdateKind::SparseTopK;
    case CompressionKind::Int8: return net::UpdateKind::Int8;
  }
  throw std::invalid_argument("to_update_kind: bad kind");
}

CompressionKind to_compression_kind(net::UpdateKind kind) {
  switch (kind) {
    case net::UpdateKind::Dense: return CompressionKind::None;
    case net::UpdateKind::SparseTopK: return CompressionKind::TopK;
    case net::UpdateKind::Int8: return CompressionKind::Int8;
  }
  throw std::invalid_argument("to_compression_kind: bad kind");
}

net::TrainJobMsg make_train_job_msg(const TrainJobSpec& job,
                                    const LocalWorkConfig& work,
                                    const std::vector<float>& params,
                                    const obs::TraceContext& trace) {
  return {.epoch = job.epoch,
          .client_id = static_cast<std::uint32_t>(job.client_id),
          .rng_seed = job.rng_seed,
          .algorithm = static_cast<std::uint8_t>(work.fedprox ? 1 : 0),
          .fedprox_mu = work.fedprox_mu,
          .work_fraction = job.work_fraction,
          .local_epochs = work.local.epochs,
          .batch_size = work.local.batch_size,
          .learning_rate = work.local.sgd.learning_rate,
          .momentum = work.local.sgd.momentum,
          .weight_decay = work.local.sgd.weight_decay,
          .compression_kind = static_cast<std::uint8_t>(work.compression.kind),
          .topk_fraction = work.compression.topk_fraction,
          .error_feedback =
              static_cast<std::uint8_t>(work.compression.error_feedback),
          .params = params,
          .trace = trace};
}

std::pair<TrainJobSpec, LocalWorkConfig> from_train_job_msg(
    const net::TrainJobMsg& msg) {
  const TrainJobSpec job{.client_id = msg.client_id,
                         .epoch = static_cast<std::size_t>(msg.epoch),
                         .rng_seed = msg.rng_seed,
                         .work_fraction = msg.work_fraction};
  const LocalWorkConfig work{
      .local = {.epochs = static_cast<std::size_t>(msg.local_epochs),
                .batch_size = static_cast<std::size_t>(msg.batch_size),
                .sgd = {.learning_rate = msg.learning_rate,
                        .momentum = msg.momentum,
                        .weight_decay = msg.weight_decay}},
      .fedprox = msg.algorithm != 0,
      .fedprox_mu = msg.fedprox_mu,
      .compression = {
          .kind = static_cast<CompressionKind>(msg.compression_kind),
          .topk_fraction = msg.topk_fraction,
          .error_feedback = msg.error_feedback != 0}};
  return {job, work};
}

net::UpdatePayload make_update_payload(const CompressedUpdate& compressed,
                                       std::size_t n,
                                       const CompressionConfig& config) {
  net::UpdatePayload payload;
  payload.kind = to_update_kind(config.kind);
  payload.size = n;
  switch (config.kind) {
    case CompressionKind::None:
      payload.dense = compressed.dense;
      break;
    case CompressionKind::TopK:
      payload.indices = compressed.topk_indices;
      payload.values = compressed.topk_values;
      break;
    case CompressionKind::Int8:
      payload.codes = compressed.int8_codes;
      payload.lo = compressed.int8_lo;
      payload.step = compressed.int8_step;
      break;
  }
  // The consistency contract: what the latency model priced is what ships.
  const std::size_t actual = net::update_body_bytes(payload);
  const std::size_t priced = compressed_wire_bytes(n, config);
  if (actual != priced) {
    throw std::logic_error(
        "make_update_payload: codec emits " + std::to_string(actual) +
        " bytes but compressed_wire_bytes prices " + std::to_string(priced));
  }
  return payload;
}

std::size_t train_job_frame_bytes(std::size_t n) {
  return net::train_job_overhead_bytes() + n * sizeof(float);
}

std::size_t update_frame_bytes(std::size_t n,
                               const CompressionConfig& config) {
  return net::client_update_overhead_bytes() + compressed_wire_bytes(n, config);
}

}  // namespace haccs::fl
