"""Sweep the interception fraction and watch the error rate climb as f/4.

An intercept-resend attacker measures a fraction f of the qubits in a random
basis and resends what she saw. She guesses the wrong basis half the time,
and half of those corrupted positions read back wrong for Bob, so the sifted
key carries an error rate of f/4: full interception means 25 percent errors,
unmissable against the roughly 11 percent abort threshold.
"""

from bb84sim import SweepConfig, run_sweep


def main() -> None:
    config = SweepConfig(
        f_values=(0.0, 0.1, 0.2, 0.5, 1.0),
        trials_per_f=50,
        n_qubits=50_000,
        master_seed=42,
    )
    result = run_sweep(config, workers=4)

    print("interception fraction vs observed error rate (50 trials each)")
    print(f"{'f':>5}  {'mean':>9}  {'std':>9}  {'95% CI of mean':>22}  {'f/4':>7}")
    for point in result.per_point:
        print(
            f"{point.f:>5.2f}  {point.mean_qber:>9.6f}  {point.std_dev:>9.6f}"
            f"  [{point.ci_low:.6f}, {point.ci_high:.6f}]  {point.theory:>7.4f}"
        )

    worst = max(abs(p.mean_qber - p.theory) for p in result.per_point)
    print(f"\nlargest deviation from f/4: {worst:.6f}")


if __name__ == "__main__":
    main()
