"""Random delays: linear in the mean, with a slope the spread sets.

When the delay is drawn fresh each step from a distribution, 1/eta* is again
linear in the expected delay E[tau] within one family of delays.  But the
slope is not the constant delay's 2/pi.  A narrow discretized Gaussian acts
like its mean (slope about 0.65 here).  Uniform delays on {1..b} have slope
about 0.41: a uniform delay tolerates a larger step than a constant delay at
its mean, up to about pi/2 times larger as b grows.
"""

import math
from pathlib import Path

from staleness_lab import pmf_discrete_gaussian, pmf_uniform, threshold_curve
from staleness_lab.svgchart import write_chart

OUT = Path("demo_out")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)

    uniform = [pmf_uniform(1, b) for b in range(1, 25)]
    gauss = [pmf_discrete_gaussian(mu) for mu in range(1, 11)]

    ucurve = threshold_curve("plain", 1.0, uniform, rel_tol=1e-6)
    gcurve = threshold_curve("plain", 1.0, gauss, rel_tol=1e-6)

    print("uniform delays on {1..b}:")
    print(f"  slope of 1/eta* vs E[tau]: {ucurve.slope:.4f}, R^2 = {ucurve.r_squared:.6f}")
    print("discretized Gaussian delays:")
    print(f"  slope of 1/eta* vs E[tau]: {gcurve.slope:.4f}, R^2 = {gcurve.r_squared:.6f}")
    print(f"constant delay, for reference: slope 2/pi = {2 / math.pi:.4f}")

    # one chart, both families, x = expected delay
    xs = sorted({round(r.x, 6) for r in ucurve.rows} | {round(r.x, 6) for r in gcurve.rows})
    by_x_u = {round(r.x, 6): r.inv_a_eta for r in ucurve.rows if r.result}
    by_x_g = {round(r.x, 6): r.inv_a_eta for r in gcurve.rows if r.result}
    rows = [(x, by_x_u.get(x), by_x_g.get(x)) for x in xs]
    write_chart(
        OUT / "random_delays.svg",
        ["E[tau]", "uniform", "gaussian"],
        rows,
        title="1/eta* vs expected delay, two delay distributions",
        y_label="1 / eta*",
    )
    ucurve.write_csv(OUT / "random_delays_uniform.csv")
    gcurve.write_csv(OUT / "random_delays_gaussian.csv")
    print(f"wrote {OUT}/random_delays.svg and the two CSV tables")


if __name__ == "__main__":
    main()
