"""Channel noise looks exactly like eavesdropping, which is the point.

A depolarizing channel with probability p flips sifted bits at rate p/2, so
honest noise and an intercept-resend attack are indistinguishable from the
error rate alone. BB84 handles this by construction: all errors are charged
to the adversary, and the session aborts when the rate crosses the key-rate
threshold near 0.11, i.e. around p = 0.22 for pure channel noise.
"""

from bb84sim import (
    ChannelModel,
    DecisionPolicy,
    EveStrategy,
    SessionConfig,
    confidence_interval,
    decide,
    run_session,
    threshold_root,
)
from bb84sim.core import CIMethod


def main() -> None:
    print(f"threshold: {threshold_root():.6f} error rate, ~0.22 depolarizing p\n")
    print(f"{'p':>5}  {'expected':>9}  {'observed':>9}  decision")
    for p in (0.0, 0.05, 0.10, 0.15, 0.20, 0.22, 0.25, 0.30):
        result = run_session(SessionConfig(
            50_000, EveStrategy.absent(), ChannelModel.depolarizing(p), seed=42
        ), ledger=False)
        est = result.estimate
        ci = confidence_interval(est, 0.95, CIMethod.CLOPPER_PEARSON)
        verdict = decide(est, ci, DecisionPolicy.UPPER_BOUND)
        print(
            f"{p:>5.2f}  {p / 2:>9.4f}  {est.point_estimate:>9.4f}"
            f"  {verdict.decision.name}"
        )


if __name__ == "__main__":
    main()
