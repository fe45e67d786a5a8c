// Quality-of-service vocabulary of the serving layer: QoS classes,
// degradation levels, the overload policy knobs, and the typed errors the
// admission/deadline machinery raises. Split out of service.hpp because the
// wire protocol and CLI need these types without the full service.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace tmhls::serve {

/// What the service may do to a job when the deadline can't be met at full
/// quality. Encoded on the wire as a u8 — values are part of protocol v2.
enum class QosClass : std::uint8_t {
  /// Shed under overload: submit() throws Overloaded instead of queueing
  /// behind work that would blow the deadline. Never degraded — a
  /// best-effort caller wants the real pipeline or nothing.
  best_effort = 0,
  /// Degrade under overload: routed down the ladder (reduced-radius blur,
  /// then a global operator) so a frame is always produced in time.
  standard = 1,
  /// Never shed, never degraded: blocks for queue space exactly like the
  /// pre-QoS service. Deadlines still apply once admitted.
  critical = 2,
};

/// How far down the ladder a job was routed. Carried in FrameResult and on
/// the wire (u8, protocol v2) so callers can tell a degraded frame apart.
enum class DegradeLevel : std::uint8_t {
  none = 0,           ///< full pipeline, bit-identical to tone_map()
  reduced_blur = 1,   ///< full pipeline with a capped blur radius
  global_operator = 2 ///< cheap global operator instead of the local pipeline
};

/// Admission-control knobs, part of ToneMapServiceOptions. The defaults
/// keep the pre-QoS behavior for jobs without deadlines and shed/degrade
/// only when a deadline provably can't be met.
struct OverloadPolicy {
  /// Floor for the per-shard service-time estimate. The estimate is an
  /// EWMA of observed full-quality service times; before any job has
  /// completed the EWMA is zero and admission control stays open. Tests
  /// (and operators who know their workload) set this to make shedding
  /// decisions deterministic from the first job.
  double assumed_service_seconds = 0.0;
  /// Blur radius cap of DegradeLevel::reduced_blur. The degraded job runs
  /// the full five-stage pipeline with radius = min(full, this).
  int reduced_radius = 4;
  /// Estimated cost of a reduced_blur job relative to full quality, used
  /// to pick between reduced_blur and global_operator for a standard-QoS
  /// job: if even `fraction x estimated_wait` exceeds the deadline, the
  /// ladder goes straight to the global operator.
  double reduced_cost_fraction = 0.25;
};

/// Thrown by ToneMapService::submit() when admission control rejects a
/// best-effort job instead of queueing it. Typed (not InvalidArgument):
/// the request was well-formed, the service chose to shed it.
class Overloaded : public Error {
public:
  explicit Overloaded(const std::string& what) : Error(what) {}
};

/// Delivered through the job's future (or thrown by submit() when the
/// deadline is already expired on arrival) when a deadline passes before
/// the frame is produced. Work is dropped at the next checkpoint —
/// admission, dequeue, or engine entry — never mid-frame.
class DeadlineExceeded : public Error {
public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Human-readable names, used by stats tables and the CLI (`--qos NAME`).
const char* to_string(QosClass qos);
const char* to_string(DegradeLevel level);

/// Parses a CLI spelling ("best_effort", "standard", "critical"); throws
/// InvalidArgument on anything else.
QosClass qos_from_string(const std::string& name);

} // namespace tmhls::serve
