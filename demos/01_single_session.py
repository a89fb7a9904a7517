"""Walk through one BB84 session, position by position.

Alice sends random bits in random bases; Bob measures in his own random
bases. Positions where the bases agree form the sifted key, half of which is
sacrificed to estimate the error rate. With nobody listening the comparison
comes back clean and the session proceeds.
"""

from bb84sim import (
    ChannelModel,
    DecisionPolicy,
    EveStrategy,
    SessionConfig,
    confidence_interval,
    decide,
    key_rate,
    run_session,
)
from bb84sim.core import CIMethod


def main() -> None:
    config = SessionConfig(
        n_qubits=2_000,
        eve=EveStrategy.absent(),
        channel=ChannelModel.ideal(),
        seed=42,
    )
    result = run_session(config)

    led = result.records
    basis = ("RECT", "DIAG")
    print("first ten transmissions:")
    print("  pos  alice bit/basis  bob bit/basis  sifted  sampled")
    for i in range(10):
        print(
            f"  {i:3d}      {led.alice_bits[i]} / {basis[led.alice_bases[i]]}"
            f"      {led.bob_bits[i]} / {basis[led.bob_bases[i]]}"
            f"    {'yes' if led.sifted[i] else ' no'}"
            f"     {'yes' if led.sampled[i] else ' no'}"
        )

    est = result.estimate
    ci = confidence_interval(est, 0.95, CIMethod.CLOPPER_PEARSON)
    verdict = decide(est, ci, DecisionPolicy.UPPER_BOUND)
    report = key_rate(est.point_estimate)

    print()
    print(f"qubits sent      : {config.n_qubits}")
    print(f"sifted key bits  : {result.sifted_count}")
    print(f"compared bits    : {est.compared_n}")
    print(f"errors found     : {est.errors_k}")
    print(f"error rate       : {est.point_estimate:.6f}")
    print(f"95% interval     : [{ci.lower:.6f}, {ci.upper:.6f}]")
    print(f"decision         : {verdict.decision.name}"
          f" (upper bound {verdict.qber_used:.6f} vs threshold {verdict.threshold:.6f})")
    print(f"key rate         : {report.rate:.6f}")
    print(f"remaining key    : {result.raw_key_bits} bits")


if __name__ == "__main__":
    main()
