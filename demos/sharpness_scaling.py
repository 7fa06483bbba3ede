"""Everything scales through eta times sharpness.

The stability story for a quadratic depends on eta only through the product
eta * a, where a is the largest Hessian eigenvalue.  So: estimate a with
power iteration (no dense eigendecomposition), divide the unit-curvature
threshold by it, and the multi-dimensional system flips from convergent to
divergent exactly where the scalar theory says it should.

Also shows the delay-aware rescaling rule: lr tuned for synchronous descent,
shrunk by the threshold ratio when a delay appears, stays stable.  The rule
(``scale_lr``) linearises the sine in that ratio, so it overshoots the exact
edge by ``x / sin(x) - 1`` with ``x = pi / (4 tau + 2)``: 0.14% at this demo's
tau = 8, but 4.7% at tau 1 and 57% at tau 0.  The synchronous lr here sits 10%
inside its edge, which covers the overshoot.
"""

import numpy as np

from staleness_lab import (
    OptimizerSpec,
    QuadraticProblem,
    SimConfig,
    analytic_threshold_plain,
    power_iteration,
    scale_lr,
    simulate_expectation,
)

TAU = 8


def main() -> None:
    rng = np.random.default_rng(2)
    g = rng.normal(size=(24, 24))
    hessian = g @ g.T / 24 + 0.1 * np.eye(24)
    problem = QuadraticProblem(hessian)

    lam, iters = power_iteration(lambda v: hessian @ v, 24, seed=0)
    dense = float(np.linalg.eigvalsh(hessian)[-1])
    print(f"power iteration: lambda_max = {lam:.8f} after {iters} iterations")
    print(f"dense solver:    lambda_max = {dense:.8f}"
          f"  (rel err {abs(lam - dense) / dense:.1e})")

    eta_star = analytic_threshold_plain(lam, TAU)
    print(f"\npredicted threshold at tau = {TAU}: eta* = {eta_star:.6f}")
    for frac in (0.9, 1.1):
        cfg = SimConfig(optimizer=OptimizerSpec("plain", frac * eta_star, 0.0),
                        delay=TAU, max_steps=200_000)
        verdict = simulate_expectation(problem, cfg)
        print(f"  eta = {frac:.1f} * eta*: {verdict.status}")

    # retuning rule: lr that was stable synchronously, adjusted for delay
    lr0 = 0.9 * analytic_threshold_plain(lam, 0)
    lr8 = scale_lr(lr0, TAU)
    cfg = SimConfig(optimizer=OptimizerSpec("plain", lr8, 0.0),
                    delay=TAU, max_steps=200_000)
    print(f"\nsynchronous lr {lr0:.4f} rescaled for tau = {TAU}: {lr8:.4f}"
          f" -> {simulate_expectation(problem, cfg).status}")


if __name__ == "__main__":
    main()
