"""The four binomial confidence intervals side by side.

The same observed count supports four different intervals depending on the
trade-off you want: Wald is the cheap classroom formula (and collapses to a
point at k = 0), Wilson fixes its small-sample behaviour, the exact interval
never under-covers, and the Hoeffding bound holds with no distributional
assumptions at all, at the price of being the widest.
"""

from bb84sim import CIMethod, QberEstimate, confidence_interval

CASES = [
    (0, 100, "zero errors in a small sample"),
    (3, 100, "a few errors"),
    (50, 100, "maximally noisy"),
    (6238, 25000, "a large attacked session"),
    (1250, 25000, "a large clean-ish session"),
]


def main() -> None:
    for k, n, label in CASES:
        est = QberEstimate(k, n)
        print(f"k = {k}, n = {n}  ({label}); point = {est.point_estimate:.6f}")
        for method in CIMethod:
            ci = confidence_interval(est, 0.95, method)
            print(
                f"  {method.value:<15}  [{ci.lower:.6f}, {ci.upper:.6f}]"
                f"  width {ci.width:.6f}"
            )
        print()


if __name__ == "__main__":
    main()
