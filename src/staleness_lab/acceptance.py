"""The self-check suite behind the ``verify`` subcommand.

Named criteria (``CRITERIA``), each an independent cross-check of one
advertised capability: closed-form thresholds, the inverse-linear step-size
law, the momentum direction results, stochastic delays, simulation/root
agreement, mode reduction, parameter-server equivalence, trajectory-only
thresholds, power iteration, root-finder invariants, and byte-level
determinism.

Every criterion uses hard-coded seeds, and detail strings never contain
wall times, so two runs on one machine print the same table byte for byte.
Two details (power-iteration, root-finder) quote errors against numpy's
LAPACK-backed references, so they may differ between BLAS/LAPACK builds.
A criterion passes only if its numeric condition holds AND it finishes
inside its time budget.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .charpoly import (
    DelayModel,
    OptimizerSpec,
    Polynomial,
    char_poly,
    pmf_discrete_gaussian,
    pmf_uniform,
)
from .dynamics import (
    CONVERGED,
    DIVERGED,
    QuadraticProblem,
    SimConfig,
    _simulate_many,
    empirical_threshold,
    power_iteration,
    simulate_expectation,
)
from .errors import NoConvergence
from .pssim import RoundRobin, ps_empirical_threshold, run_ps
from .roots import all_roots_many
from .stability import (
    _fit_line,
    analytic_threshold_plain,
    numeric_threshold,
    taylor_inverse_threshold,
    threshold_curve,
)

TWO_OVER_PI = 2.0 / math.pi


def _eta_stars(variant: str, a: float, delays, m: float = 0.0, rel_tol: float = 1e-8):
    """``numeric_threshold(...).eta_star`` at each delay, searched as one curve."""
    curve = threshold_curve(variant, a, delays, m=m, rel_tol=rel_tol)
    for row in curve.rows:
        if row.result is None:
            raise NoConvergence(f"threshold search at delay {row.x!r} failed: {row.error}")
    return [row.result.eta_star for row in curve.rows]


def _plain_thresholds(ctx: dict) -> dict[int, float]:
    """Numeric plain-variant thresholds for tau 0..64 at a=1, cached."""
    if "plain_eta" not in ctx:
        ctx["plain_eta"] = dict(enumerate(_eta_stars("plain", 1.0, range(65))))
    return ctx["plain_eta"]


def _write_rows(out_dir: str | None, name: str, header: str, rows) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in r)
                        for r in rows]
    with open(path / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- criteria

def _c_exact_threshold(ctx, out_dir):
    etas = _plain_thresholds(ctx)
    worst = max(abs(etas[tau] - analytic_threshold_plain(1.0, tau)) for tau in range(65))
    return worst <= 1e-6, f"max |numeric - closed form| = {worst:.3e} over tau 0..64"


def _c_taylor(ctx, out_dir):
    rows = []
    worst = 0.0
    for tau in range(1, 65):
        exact_inv = 1.0 / analytic_threshold_plain(1.0, tau)
        taylor = taylor_inverse_threshold(tau)
        err = abs(exact_inv - taylor)
        worst = max(worst, err)
        rows.append((tau, exact_inv, taylor, err))
    _write_rows(out_dir, "taylor_accuracy.csv", "tau,inverse_exact,taylor,abs_err", rows)
    return worst < 0.05, f"max |1/eta* - (2tau+1)/pi| = {worst:.6f} over tau 1..64"


def _c_inverse_linear(ctx, out_dir):
    etas = _plain_thresholds(ctx)
    taus = list(range(4, 65))
    slope, _, r2 = _fit_line(taus, [1.0 / etas[t] for t in taus])
    rel = abs(slope - TWO_OVER_PI) / TWO_OVER_PI
    ok = rel <= 0.02 and r2 >= 0.999
    return ok, f"slope={slope:.6f} (rel err {rel:.2e} vs 2/pi), R^2={r2:.8f}"


def _c_momentum_direction(ctx, out_dir):
    tau = DelayModel.constant(16)
    ms = (0.0, 0.5, 0.9)
    mom = [numeric_threshold("momentum", 1.0, tau, m=m).eta_star for m in ms]
    shf = [numeric_threshold("shifted", 1.0, tau, m=m).eta_star for m in ms]
    rows = [("momentum", m, e) for m, e in zip(ms, mom)]
    rows += [("shifted", m, e) for m, e in zip(ms, shf)]
    _write_rows(out_dir, "momentum_direction.csv", "variant,m,eta_star", rows)
    gap_mom = min(mom[0] - mom[1], mom[1] - mom[2])
    gap_shf = min(shf[1] - shf[0], shf[2] - shf[1])
    ok = gap_mom >= 1e-4 and gap_shf >= 1e-4
    return ok, (f"momentum eta* falls with m (min gap {gap_mom:.4f}), "
                f"shifted rises (min gap {gap_shf:.4f})")


def _c_stochastic(ctx, out_dir):
    uni = threshold_curve("plain", 1.0,
                          [pmf_uniform(1, b) for b in range(1, 65)], rel_tol=1e-6)
    gau = threshold_curve("plain", 1.0,
                          [pmf_discrete_gaussian(mu) for mu in range(1, 31)], rel_tol=1e-6)
    if any(r.result is None for r in uni.rows + gau.rows):
        return False, "a stochastic threshold search failed"
    ok = uni.r_squared >= 0.99 and gau.r_squared >= 0.99
    return ok, (f"uniform(1,b) R^2={uni.r_squared:.6f}, "
                f"discrete-gaussian R^2={gau.r_squared:.6f} for 1/eta* vs E[tau]")


def _c_grid(ctx, out_dir):
    families = [("plain", 0.0)] + [(v, m) for v in ("momentum", "shifted")
                                   for m in (0.3, 0.6, 0.9)]
    taus = (1, 2, 4, 8, 16, 32, 64)
    fracs = (0.3, 0.5, 0.6, 0.8, 0.9, 0.95, 1.05, 1.2, 1.5, 2.0, 3.0)
    points = []
    for variant, m in families:
        for tau, eta_star in zip(taus, _eta_stars(variant, 1.0, taus, m=m, rel_tol=1e-6)):
            dm = DelayModel.constant(tau)
            points += [(OptimizerSpec(variant, frac * eta_star, m), dm) for frac in fracs]
    want = [CONVERGED if rs.max_magnitude < 1.0 else DIVERGED
            for rs in all_roots_many([char_poly(opt, 1.0, dm) for opt, dm in points])]
    verdicts = _simulate_many(QuadraticProblem([[1.0]]),
                              [SimConfig(opt, dm, max_steps=1_000_000) for opt, dm in points])
    disagreements = sum(v.status != w for v, w in zip(verdicts, want))
    return disagreements == 0, f"{len(points)} grid points, {disagreements} disagreements"


def _c_modes(ctx, out_dir):
    rng = np.random.default_rng(20260823)
    mismatches = 0
    for trial in range(50):
        d = int(rng.integers(2, 9))
        lam_max = float(np.exp(rng.uniform(-0.5, 1.0)))
        ratios = [1.0]
        while len(ratios) < d:
            r = float(rng.uniform(0.05, 0.92))
            # keep every mode at least ~3% from its own stability boundary
            if abs(r - 0.8) >= 0.025:
                ratios.append(r)
        lams = lam_max * np.sort(np.asarray(ratios))[::-1]
        g = rng.standard_normal((d, d))
        q, _ = np.linalg.qr(g)
        hess = q @ np.diag(lams) @ q.T
        # at tau=0 the shifted m=0.6 boundary is eta*a = 2(1+m)/(1-m) = 8
        variant, m = [("plain", 0.0), ("momentum", 0.5), ("shifted", 0.6)][trial % 3]
        tau = int(rng.choice((0, 1, 2, 4, 8, 16)))
        dm = DelayModel.constant(tau)
        eta_star = numeric_threshold(variant, lam_max, dm, m=m, rel_tol=1e-6).eta_star
        eta = (0.8 if trial % 2 == 0 else 1.25) * eta_star
        opt = OptimizerSpec(variant, eta, m)

        full = simulate_expectation(
            QuadraticProblem(hess),
            SimConfig(opt, dm, max_steps=400_000, init="random_unit", seed=trial),
        ).status
        # the ratios include 1.0, so the first mode is the top one
        per_mode = [
            simulate_expectation(
                QuadraticProblem([[float(lam)]]), SimConfig(opt, dm, max_steps=400_000)
            ).status
            for lam in lams
        ]
        top = per_mode[0]
        anded = CONVERGED if all(s == CONVERGED for s in per_mode) else DIVERGED
        if not (full == top == anded):
            mismatches += 1
    return mismatches == 0, f"50 random SPD problems, {mismatches} verdict mismatches"


def _c_ps(ctx, out_dir):
    worst = 0.0
    combos = 0
    worker_counts = (2, 5, 9, 17, 33)
    families = (("plain", 0.0), ("momentum", 0.8), ("shifted", 0.8))
    edges = {variant: _eta_stars(variant, 1.0, [w - 1 for w in worker_counts], m=m, rel_tol=1e-4)
             for variant, m in families}
    for i, workers in enumerate(worker_counts):
        dm = DelayModel.constant(workers - 1)
        for variant, m in families:
            eta = 0.45 * edges[variant][i]
            opt = OptimizerSpec(variant, eta, m)
            steps = 600
            run = run_ps(QuadraticProblem([[1.0]]), RoundRobin(workers), opt, steps)
            ref = simulate_expectation(
                QuadraticProblem([[1.0]]),
                SimConfig(opt, dm, max_steps=steps, record_trace=True),
            )
            ref_norms = dict(ref.trace)
            diff = max(abs(run.norms[t] - ref_norms[t]) for t in range(steps + 1)
                       if t in ref_norms)
            worst = max(worst, diff)
            combos += 1
    th_errs = []
    for workers in (2, 5):
        got = ps_empirical_threshold(
            QuadraticProblem([[1.0]]), RoundRobin(workers), "plain", rel_tol=0.005
        ).eta_star
        want = analytic_threshold_plain(1.0, workers - 1)
        th_errs.append(abs(got - want) / want)
    ok = worst <= 1e-12 and max(th_errs) <= 0.02
    return ok, (f"{combos} (W, variant) trajectory pairs, max per-step diff {worst:.1e}; "
                f"PS threshold rel err {max(th_errs):.4f}")


def _c_empirical(ctx, out_dir):
    prob = QuadraticProblem([[1.0]])
    errs = []
    for tau in (1, 4, 16):
        got = empirical_threshold(prob, "plain", tau, rel_tol=0.005).eta_star
        want = analytic_threshold_plain(1.0, tau)
        errs.append(abs(got - want) / want)
    for variant in ("momentum", "shifted"):
        dm = DelayModel.constant(16)
        got = empirical_threshold(prob, variant, dm, m=0.5, rel_tol=0.005).eta_star
        want = numeric_threshold(variant, 1.0, dm, m=0.5).eta_star
        errs.append(abs(got - want) / want)
    worst = max(errs)
    return worst <= 0.02, f"5 operating points, worst rel err {worst:.4f} vs root-based"


def _c_power(ctx, out_dir):
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 65))
        g = rng.standard_normal((d, d))
        a = g @ g.T / d + 0.05 * np.eye(d)
        lam, _ = power_iteration(lambda v: a @ v, d, tol=1e-10, seed=trial)
        ref = float(np.linalg.eigvalsh(a)[-1])
        worst = max(worst, abs(lam - ref) / ref)
    return worst <= 1e-6, f"50 SPD matrices (d<=64), worst rel err {worst:.2e} vs eigh"


def _random_families(rng):
    """Seeded polynomial families: 600 dense, 300 characteristic, 200 sparse, 100 wild-scaled."""
    dense = []
    for _ in range(600):
        deg = int(rng.integers(2, 41))
        c = rng.uniform(-2.0, 2.0, deg + 1)
        c[-1] = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        dense.append(tuple(float(x) for x in c))
    characteristic = []
    for _ in range(300):
        variant = ("plain", "momentum", "shifted")[int(rng.integers(0, 3))]
        m = 0.0 if variant == "plain" else float(rng.uniform(0.1, 0.95))
        tau = int(rng.integers(0, 39))
        frac = float(rng.uniform(0.2, 3.0))
        eta = frac * analytic_threshold_plain(1.0, tau)
        poly = char_poly(OptimizerSpec(variant, eta, m), 1.0, DelayModel.constant(tau))
        characteristic.append(tuple(poly.coeffs))
    sparse = []
    for _ in range(200):
        deg = int(rng.integers(41, 81))
        c = np.zeros(deg + 1)
        n_terms = int(rng.integers(4, 9))
        idx = rng.choice(deg, size=n_terms - 1, replace=False)
        c[idx] = rng.uniform(-2.0, 2.0, n_terms - 1)
        c[-1] = float(rng.uniform(0.5, 2.0))
        sparse.append(tuple(float(x) for x in c))
    wild = []
    for _ in range(100):
        deg = int(rng.integers(2, 25))
        c = rng.uniform(-2.0, 2.0, deg + 1) * 10.0 ** rng.uniform(-5.0, 5.0, deg + 1)
        if abs(c[-1]) < 1e-6:
            c[-1] = 1.0
        wild.append(tuple(float(x) for x in c))
    return [dense, characteristic, sparse, wild]


def _c_root_finder(ctx, out_dir):
    failures = 0
    checked = 0
    worst_resid = worst_conj = worst_prod = worst_mag = 0.0
    # One batch per family keeps the RootSets held at once, and peak memory, small.
    solved = ((c, rs) for family in _random_families(np.random.default_rng(11))
              for c, rs in zip(family, all_roots_many([Polynomial(c) for c in family])))
    for coeffs, rs in solved:
        checked += 1
        bad = False

        resid = max(rs.residuals) if len(rs.residuals) else 0.0
        worst_resid = max(worst_resid, resid)
        if resid > 1e-9:
            bad = True

        roots = np.asarray(rs.roots)
        gaps = np.abs(np.conj(roots)[:, None] - roots[None, :]).min(axis=1)
        conj_err = float(np.max(gaps / np.maximum(1.0, np.abs(roots))))
        worst_conj = max(worst_conj, conj_err)
        if conj_err > 1e-6:
            bad = True

        c = np.asarray(coeffs, dtype=float)
        if c[0] != 0.0:
            log_prod = float(np.sum(np.log(np.abs(roots))))
            log_want = math.log(abs(c[0])) - math.log(abs(c[-1]))
            prod_err = abs(log_prod - log_want)
            worst_prod = max(worst_prod, prod_err)
            if prod_err > 1e-6:
                bad = True
        elif not np.any(np.abs(roots) == 0.0):
            bad = True

        ref = float(np.max(np.abs(np.roots(c[::-1]))))
        mag_err = abs(rs.max_magnitude - ref) / max(1.0, ref)
        worst_mag = max(worst_mag, mag_err)
        if mag_err > 1e-6:
            bad = True

        failures += bad
    ok = failures == 0
    return ok, (f"{checked} polynomials, {failures} failures "
                f"(resid {worst_resid:.1e}, conj {worst_conj:.1e}, "
                f"prod {worst_prod:.1e}, magnitude {worst_mag:.1e})")


def _c_determinism(ctx, out_dir):
    src_root = str(Path(__file__).resolve().parents[1])
    base_env = {k: v for k, v in os.environ.items() if k != "STALENESS_LAB_SEED"}
    base_env["PYTHONPATH"] = src_root + os.pathsep + base_env.get("PYTHONPATH", "")
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run, extra in enumerate(({}, {"STALENESS_LAB_SEED": "999"})):
            art = Path(tmp) / f"run{run}"
            env = dict(base_env)
            env.update(extra)
            proc = subprocess.run(
                [sys.executable, "-m", "staleness_lab.cli", "verify",
                 "--only", "taylor-accuracy,momentum-direction", "--out", str(art)],
                capture_output=True, env=env, cwd=tmp,
            )
            if proc.returncode != 0:
                return False, f"verify subprocess exited {proc.returncode}"
            files = {p.name: p.read_bytes() for p in sorted(art.iterdir())}
            outputs.append((proc.stdout, files))
    (out_a, files_a), (out_b, files_b) = outputs
    same_table = out_a == out_b
    same_files = files_a == files_b and len(files_a) > 0
    ok = same_table and same_files
    return ok, (f"2 runs: tables {'identical' if same_table else 'differ'}, "
                f"{len(files_a)} artifacts {'identical' if same_files else 'differ'}")


# budget in seconds per criterion; None means no stated budget
CRITERIA = [
    ("exact-threshold", _c_exact_threshold, 30.0),
    ("taylor-accuracy", _c_taylor, 1.0),
    ("inverse-linear", _c_inverse_linear, 30.0),
    ("momentum-direction", _c_momentum_direction, 10.0),
    ("stochastic-inverse", _c_stochastic, 120.0),
    ("sim-root-agreement", _c_grid, 120.0),
    ("mode-reduction", _c_modes, 60.0),
    ("ps-equivalence", _c_ps, 60.0),
    ("empirical-threshold", _c_empirical, 60.0),
    ("power-iteration", _c_power, 30.0),
    ("root-finder", _c_root_finder, 60.0),
    ("determinism", _c_determinism, None),
]


def run_criteria(names=None, out_dir=None):
    """Run the named criteria (all when ``names`` is None) in canonical order.

    Returns a list of (name, passed, detail) tuples.  ``out_dir`` collects
    CSV artifacts from the criteria that produce them.  A name not in
    ``CRITERIA`` raises ValueError before any criterion runs.
    """
    known = [n for n, _, _ in CRITERIA]
    wanted = set(known if names is None else names)
    unknown = sorted(wanted - set(known))
    if unknown:
        raise ValueError(f"unknown criterion name(s): {', '.join(unknown)}; "
                         f"known: {', '.join(known)}")
    ctx: dict = {}
    results = []
    for name, func, budget in CRITERIA:
        if name not in wanted:
            continue
        t0 = time.monotonic()
        try:
            ok, detail = func(ctx, out_dir)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed > budget:
            ok = False
            detail += f"; exceeded {budget:.0f}s budget"
        results.append((name, ok, detail))
    return results
