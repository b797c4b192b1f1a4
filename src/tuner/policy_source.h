#ifndef CDBTUNE_TUNER_POLICY_SOURCE_H_
#define CDBTUNE_TUNER_POLICY_SOURCE_H_

#include <vector>

#include "tuner/memory_pool.h"

namespace cdbtune::tuner {

/// Where a session's actions come from. The implementations are the
/// in-process tuner (CdbTuner's own agent, exploration noise and all), the
/// multi-session server's shared-model policy — which runs the agent's const
/// forward under the model lock held shared (so sessions infer in parallel)
/// and adds *session-owned* exploration noise so concurrent sessions never
/// share mutable noise state — and the safety
/// layer's GuardedPolicySource decorator, which clips whatever the wrapped
/// policy proposes to the guardrail's trust region (src/safety).
///
/// This interface lives in its own header (rather than tuning_session.h) so
/// src/safety can implement it without a link-time dependency on the tuner
/// library: tuner links safety, never the reverse.
class PolicySource {
 public:
  virtual ~PolicySource() = default;

  /// Action for `state`; `explore` asks for exploration noise on top of the
  /// policy's deterministic output.
  virtual std::vector<double> ProposeAction(const std::vector<double>& state,
                                            bool explore) = 0;

  /// Best action remembered from offline training (empty when unknown);
  /// spent as one of the online candidates (Section 2.1.2).
  virtual std::vector<double> BestKnownAction() const = 0;
};

/// Where a session's experiences go: CdbTuner fine-tunes its agent on each
/// one immediately; the server appends to the session's shard of the shared
/// pool and fine-tunes at round barriers.
class ExperienceSink {
 public:
  virtual ~ExperienceSink() = default;
  virtual void Record(Experience experience) = 0;
};

}  // namespace cdbtune::tuner

#endif  // CDBTUNE_TUNER_POLICY_SOURCE_H_
