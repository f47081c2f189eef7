#include "service/config.hpp"
#include "service/request.hpp"

namespace tda::service {

const char* to_string(BackpressurePolicy p) {
  switch (p) {
    case BackpressurePolicy::Block:
      return "block";
    case BackpressurePolicy::Reject:
      return "reject";
    case BackpressurePolicy::ShedOldest:
      return "shed-oldest";
  }
  return "?";
}

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Ok:
      return "ok";
    case SolveStatus::Rejected:
      return "rejected";
    case SolveStatus::Shed:
      return "shed";
    case SolveStatus::TimedOut:
      return "timed-out";
    case SolveStatus::Failed:
      return "failed";
    case SolveStatus::Singular:
      return "singular";
    case SolveStatus::NonFinite:
      return "nonfinite";
  }
  return "?";
}

const char* to_string(TimeoutScope s) {
  switch (s) {
    case TimeoutScope::None:
      return "none";
    case TimeoutScope::Queue:
      return "queue";
    case TimeoutScope::InFlight:
      return "in-flight";
  }
  return "?";
}

}  // namespace tda::service
