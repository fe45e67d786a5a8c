// Deterministic fault-injection harness. Production code is sprinkled with
// named *sites* (`fault::inject("serve.worker.pickup")`,
// `fault::should_fail("transport.socket.recv")`); tests *arm* a site with a
// FaultSpec (delay, typed throw, allocation failure, or a site-interpreted
// "fail" such as a dropped socket read) and the next hits of that site
// perform the fault — counted, bounded, and exactly reproducible because
// triggering is hit-count based, never time or randomness based.
//
// The harness is always compiled in (so the sanitizer CI jobs exercise the
// injected failure paths with no special build); the disarmed cost is one
// relaxed atomic load per site hit. Sites are global process state: arm
// and disarm from one test thread, and disarm_all() in test teardown so
// suites stay independent.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace tmhls::fault {

/// Thrown by inject() for Action::throw_error (and Action::fail, where the
/// site has no graceful failure path of its own). Derived from Error so
/// the production error contract — which routes Error subclasses through
/// completions / wire replies — carries injected faults like real ones.
class InjectedFault : public Error {
public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
};

/// What an armed site does when it fires.
enum class Action {
  /// Sleep for delay_seconds, then continue normally — slow shards,
  /// stalled executors, network latency.
  delay,
  /// Throw InjectedFault(message) — arbitrary execution failures.
  throw_error,
  /// Throw std::bad_alloc — allocation failure at the site.
  throw_bad_alloc,
  /// should_fail() returns true: the site performs its own failure
  /// (a dropped read, a failed send). At sites that only call inject(),
  /// `fail` behaves like throw_error.
  fail,
};

/// One armed fault: what to do, and on which hits to do it.
struct FaultSpec {
  Action action = Action::fail;
  /// Sleep length for Action::delay.
  double delay_seconds = 0.0;
  /// Message for Action::throw_error / Action::fail-as-throw.
  std::string message = "injected fault";
  /// Hits of the site to let pass before the first fire (0 = fire on the
  /// first hit) — how a test aims at "the second read", deterministically.
  std::uint64_t trigger_after = 0;
  /// Bound on fires; -1 = every eligible hit fires. A site whose fires
  /// are exhausted behaves as disarmed (but keeps counting hits).
  std::int64_t max_fires = -1;
};

/// Hit/fire counters of one site since it was last armed.
struct SiteStats {
  std::uint64_t hits = 0;  ///< times the site was evaluated while armed
  std::uint64_t fires = 0; ///< times it performed its action
};

/// Arm `site` with `spec` (replacing any previous arming; counters reset).
void arm(const std::string& site, FaultSpec spec);

/// Disarm one site / every site. Sites not armed are ignored.
void disarm(const std::string& site);
void disarm_all();

/// True while at least one site is armed (the fast-path gate).
bool enabled();

/// Counters of `site`; zeros when it is not armed.
SiteStats stats(const std::string& site);

/// Production-side hook: evaluate the site. Disarmed (the default) this is
/// one relaxed atomic load. Armed and firing: delay sleeps then returns,
/// throw_error/fail throw InjectedFault, throw_bad_alloc throws
/// std::bad_alloc.
void inject(const char* site);

/// Production-side hook for sites with a graceful failure path: like
/// inject(), but an Action::fail fire returns true instead of throwing —
/// the caller performs its own failure (return an error status, drop the
/// connection). Every other action behaves exactly as in inject().
bool should_fail(const char* site);

} // namespace tmhls::fault
