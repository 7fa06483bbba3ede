"""Command line front end.

Subcommands: ``threshold`` (delay sweeps of the stability boundary),
``roots`` (characteristic roots at one operating point), ``simulate`` and
``escape-curve`` (delay-recurrence trajectories), ``ps`` (parameter-server
emulation), ``plot`` (CSV to SVG), ``verify`` (self-check suite).

Exit codes: 0 success, 1 numeric or verification failure, 2 usage error.
Configuration precedence is flags over ``--config`` JSON over defaults; the
environment variable ``STALENESS_LAB_SEED`` replaces the default seed only.
Data-producing commands write a manifest listing the resolved configuration
and every output file; feeding a manifest back through ``--config``
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .charpoly import DelayModel, OptimizerSpec, char_poly, pmf_discrete_gaussian, pmf_uniform
from .dynamics import (
    DIVERGED,
    MAX_STEPS_FLOOR,
    UNDECIDED,
    QuadraticProblem,
    SimConfig,
    SimVerdict,
    escape_time_curve,
    simulate_expectation,
)
from .errors import NoConvergence, NoThreshold, UndecidedAtProbe
from .pssim import RoundRobin, SampledDelay, delay_histogram, run_ps
from .roots import all_roots
from .stability import threshold_curve
from .svgchart import render_line_chart

SEED_ENV = "STALENESS_LAB_SEED"
VARIANTS = ("plain", "momentum", "shifted")


class CliUsage(Exception):
    """Bad flags or bad flag combinations; maps to exit code 2."""


class CliFailure(Exception):
    """A runtime/numeric failure; maps to exit code 1."""


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliUsage(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _load_config(path: str | None, command: str) -> dict | None:
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliUsage(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliUsage(f"config {path} is not valid JSON: {exc}") from None
    if isinstance(data, dict) and "command" in data and "config" in data:
        # a manifest from an earlier run; replay its configuration
        if data["command"] != command:
            raise CliUsage(
                f"manifest {path} was written by '{data['command']}', not '{command}'"
            )
        data = data["config"]
    if not isinstance(data, dict):
        raise CliUsage(f"config {path} must hold a JSON object")
    return data


def _merge(defaults: dict, config: dict | None, args: argparse.Namespace) -> dict:
    """flags > config file > defaults.

    Unknown config keys are an error, and so is a config value that no flag
    could have given: anything but a number or a string, or a null where the
    default is not null.
    """
    merged = dict(defaults)
    if config:
        unknown = sorted(set(config) - set(defaults))
        if unknown:
            raise CliUsage(f"unknown config key(s): {', '.join(unknown)}")
        for key, val in config.items():
            if val is None:
                if defaults[key] is not None:
                    raise CliUsage(f"config key {key!r} must not be null")
            elif isinstance(val, bool) or not isinstance(val, (int, float, str)):
                raise CliUsage(f"config key {key!r} must be a number or a string, "
                               f"not {json.dumps(val)}")
        merged.update(config)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _parse_tau_values(text: str) -> list[int]:
    text = str(text).strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise CliUsage(f"empty tau range {text!r}")
            return list(range(lo_i, hi_i + 1))
        taus = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise CliUsage(f"cannot parse tau list {text!r}") from None
    if not taus:
        raise CliUsage(f"tau list {text!r} names no delay")
    return taus


def _parse_pmf(text: str) -> DelayModel:
    kind, _, rest = str(text).partition(":")
    try:
        if kind == "uniform":
            lo, hi = rest.split(",")
            return pmf_uniform(int(lo), int(hi))
        if kind == "gauss":
            return pmf_discrete_gaussian(int(rest))
    except ValueError:
        raise CliUsage(f"cannot parse pmf {text!r}") from None
    raise CliUsage(f"pmf must look like uniform:LO,HI or gauss:MU, got {text!r}")


def _require(cfg: dict, key: str, flag: str):
    if cfg.get(key) is None:
        raise CliUsage(f"{flag} is required")
    return cfg[key]


def _check_variant(cfg: dict) -> str:
    if cfg["variant"] not in VARIANTS:
        raise CliUsage(f"variant must be one of {', '.join(VARIANTS)}")
    return cfg["variant"]


def _single_delay(cfg: dict) -> DelayModel:
    if (cfg.get("tau") is None) == (cfg.get("pmf") is None):
        raise CliUsage("provide exactly one of --tau / --pmf")
    if cfg.get("tau") is not None:
        taus = _parse_tau_values(cfg["tau"])
        if len(taus) != 1:
            raise CliUsage("this command takes a single --tau value")
        return DelayModel.constant(taus[0])
    return _parse_pmf(cfg["pmf"])


def _build_problem(cfg: dict) -> QuadraticProblem:
    a, spectrum = cfg.get("a"), cfg.get("spectrum")
    if (a is None) == (spectrum is None):
        raise CliUsage("provide exactly one of --a / --spectrum")
    if a is not None:
        if float(a) <= 0:
            raise CliUsage("--a must be positive")
        return QuadraticProblem([[float(a)]])
    try:
        vals = [float(p) for p in str(spectrum).split(",") if p.strip() != ""]
    except ValueError:
        raise CliUsage(f"cannot parse spectrum {spectrum!r}") from None
    if not vals:
        raise CliUsage("spectrum must list at least one eigenvalue")
    return QuadraticProblem.diagonal(vals)


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)  # 'inf' / 'nan'; strict JSON has no token for these
    return x


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _experiment_config(cfg: dict) -> dict:
    # Output locations are not part of the experiment's identity; dropping
    # them keeps replayed runs byte-identical wherever they are written.
    return {k: v for k, v in cfg.items() if k not in ("out", "svg")}


def _write_manifest(path: Path, command: str, cfg: dict, seeds: dict,
                    outputs: list[str], t0: float) -> None:
    _write_json(path, {
        "command": command,
        "config": _experiment_config(cfg),
        "version": __version__,
        "seeds": seeds,
        "outputs": outputs,
        "wall_time_s": round(time.time() - t0, 3),
    })


def _report(verdict: SimVerdict, command: str, cfg: dict, seeds: dict,
            files: dict[str, str], t0: float) -> int:
    """Write a run's artifacts under ``--out``, if given, then print its verdict.

    Writing first keeps a run whose artifacts cannot be written from also
    reporting a result.
    """
    if cfg["out"]:
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write_text(out / name, text)
        _write_json(out / "verdict.json", {
            "status": verdict.status,
            "escape_step": verdict.escape_step,
            "amplification": _jsonable(verdict.amplification),
            "steps": verdict.steps,
            "clipped_delays": verdict.clipped_delays,
            "config": _experiment_config(cfg),
        })
        _write_manifest(out / "manifest.json", command, cfg, seeds, [*files, "verdict.json"], t0)
    amp = verdict.amplification
    if verdict.status == DIVERGED:
        print(f"diverged at step {verdict.escape_step} (amplification {amp:.6g})")
    elif verdict.status == UNDECIDED:
        print(f"undecided after {verdict.steps} steps (amplification {amp:.6g})")
    else:
        print(f"converged after {verdict.steps} steps (amplification {amp:.6g})")
    if verdict.clipped_delays:
        print(f"clipped {verdict.clipped_delays} sampled delay(s) at the start of the run")
    return 0


# ---------------------------------------------------------------- threshold

def cmd_threshold(args: argparse.Namespace) -> int:
    defaults = {
        "variant": "plain", "m": 0.0, "a": None, "tau": None, "pmf": None,
        "rel_tol": 1e-8, "out": None, "svg": None,
    }
    cfg = _merge(defaults, _load_config(args.config, "threshold"), args)
    variant = _check_variant(cfg)
    a = float(_require(cfg, "a", "--a"))
    if a <= 0:
        raise CliUsage("--a must be positive")
    if (cfg["tau"] is None) == (cfg["pmf"] is None):
        raise CliUsage("provide exactly one of --tau / --pmf")
    delays = (
        _parse_tau_values(cfg["tau"]) if cfg["tau"] is not None
        else [_parse_pmf(cfg["pmf"])]
    )

    t0 = time.time()
    curve = threshold_curve(variant, a, delays, m=float(cfg["m"]), rel_tol=float(cfg["rel_tol"]))
    failed = [r for r in curve.rows if r.result is None]
    for r in failed:
        print(f"row x={r.x:g} failed: {r.error}", file=sys.stderr)

    if cfg["out"]:
        out = Path(cfg["out"])
        curve.write_csv(out)
        outputs = [out.name]
        if cfg["svg"]:
            svg_path = Path(cfg["svg"])
            rows = [
                (r.x, r.result.eta_star if r.result else None) for r in curve.rows
            ]
            _write_text(svg_path, render_line_chart(
                ["tau_or_Etau", "eta_star"], rows, title=f"stability threshold ({variant})",
            ))
            outputs.append(svg_path.name)
        _write_manifest(out.with_name(out.name + ".manifest.json"),
                        "threshold", cfg, {}, outputs, t0)
        print(f"wrote {len(curve.rows)} rows to {out}")
    else:
        for r in curve.rows:
            if r.result is None:
                print(f"x={r.x:g}  failed")
            else:
                print(f"x={r.x:g}  eta_star={r.result.eta_star!r}  ({r.result.method})")
    good = len(curve.rows) - len(failed)
    if good >= 2:
        print(f"fit: slope={curve.slope!r} intercept={curve.intercept!r} r_squared={curve.r_squared!r}")
    return 1 if failed else 0


# -------------------------------------------------------------------- roots

def cmd_roots(args: argparse.Namespace) -> int:
    defaults = {"variant": "plain", "m": 0.0, "a": None, "eta": None, "tau": None, "pmf": None}
    cfg = _merge(defaults, _load_config(args.config, "roots"), args)
    variant = _check_variant(cfg)
    a = float(_require(cfg, "a", "--a"))
    eta = float(_require(cfg, "eta", "--eta"))
    if eta <= 0:
        raise CliUsage("--eta must be positive (the polynomial degenerates at 0)")
    delay = _single_delay(cfg)
    poly = char_poly(OptimizerSpec(variant, eta, float(cfg["m"])), a, delay)
    rs = all_roots(poly)
    stable = rs.max_magnitude < 1.0
    if args.json:
        print(json.dumps({
            "degree": poly.degree,
            "roots": [[z.real, z.imag] for z in rs.roots],
            "max_magnitude": rs.max_magnitude,
            "stable": stable,
        }, indent=2, sort_keys=True))
    else:
        for z in rs.roots:
            print(f"{z.real:+.12e} {z.imag:+.12e}j  |z|={abs(z):.12f}")
        print(f"max magnitude: {rs.max_magnitude!r}")
        print(f"stable: {'yes' if stable else 'no'}")
    return 0


# ----------------------------------------------------------------- simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    defaults = {
        "a": None, "spectrum": None, "variant": "plain", "m": 0.0, "eta": None,
        "tau": None, "pmf": None, "steps": None, "blowup": 1e6, "decay": 1e-6,
        "init": "top_eigvec", "seed": _env_seed(), "record_every": 1, "out": None,
    }
    cfg = _merge(defaults, _load_config(args.config, "simulate"), args)
    variant = _check_variant(cfg)
    problem = _build_problem(cfg)
    delay = _single_delay(cfg)
    eta = float(_require(cfg, "eta", "--eta"))
    if eta < 0:
        raise CliUsage("--eta must be non-negative")
    t0 = time.time()

    if eta == 0.0:
        # Zero step size moves nothing: report the degenerate run directly
        # instead of forcing it through types that (rightly) demand eta > 0.
        steps = int(cfg["steps"]) if cfg["steps"] is not None else max(
            100 * (delay.max_delay + 1), MAX_STEPS_FLOOR
        )
        verdict = SimVerdict(UNDECIDED, None, 1.0, steps, trace=((0, 1.0), (steps, 1.0)))
    else:
        sim_cfg = SimConfig(
            optimizer=OptimizerSpec(variant, eta, float(cfg["m"])),
            delay=delay,
            max_steps=int(cfg["steps"]) if cfg["steps"] is not None else None,
            blowup_factor=float(cfg["blowup"]),
            decay_factor=float(cfg["decay"]),
            init=cfg["init"],
            seed=int(cfg["seed"]),
            record_every=int(cfg["record_every"]),
            record_trace=bool(cfg["out"]),
        )
        verdict = simulate_expectation(problem, sim_cfg)

    files = {}
    if cfg["out"]:
        lines = ["step,norm"] + [f"{s},{n!r}" for s, n in verdict.trace]
        files["trace.csv"] = "\n".join(lines) + "\n"
    return _report(verdict, "simulate", cfg, {"seed": int(cfg["seed"])}, files, t0)


# ------------------------------------------------------------- escape-curve

def cmd_escape_curve(args: argparse.Namespace) -> int:
    defaults = {
        "a": None, "spectrum": None, "variant": "plain", "m": 0.0,
        "tau": None, "pmf": None, "etas": None, "eta_range": None,
        "steps": None, "blowup": 1e6, "decay": 1e-6, "out": None,
    }
    cfg = _merge(defaults, _load_config(args.config, "escape-curve"), args)
    variant = _check_variant(cfg)
    problem = _build_problem(cfg)
    delay = _single_delay(cfg)
    if (cfg["etas"] is None) == (cfg["eta_range"] is None):
        raise CliUsage("provide exactly one of --etas / --eta-range")
    if cfg["etas"] is not None:
        try:
            etas = [float(p) for p in str(cfg["etas"]).split(",") if p.strip() != ""]
        except ValueError:
            raise CliUsage(f"cannot parse --etas {cfg['etas']!r}") from None
    else:
        try:
            lo_s, hi_s, n_s = str(cfg["eta_range"]).split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise CliUsage("--eta-range must look like LO:HI:COUNT") from None
        if n < 2 or hi <= lo:
            raise CliUsage("--eta-range needs COUNT >= 2 and HI > LO")
        etas = [lo + i * (hi - lo) / (n - 1) for i in range(n)]

    t0 = time.time()
    curve = escape_time_curve(
        problem, variant, delay, etas, m=float(cfg["m"]),
        max_steps=int(cfg["steps"]) if cfg["steps"] is not None else None,
        blowup_factor=float(cfg["blowup"]), decay_factor=float(cfg["decay"]),
    )
    for eta, step in curve.rows:
        print(f"eta={eta!r}  escape_step={'-' if step is None else step}")
    if cfg["out"]:
        out = Path(cfg["out"])
        curve.write_csv(out)
        _write_manifest(out.with_name(out.name + ".manifest.json"),
                        "escape-curve", cfg, {}, [out.name], t0)
    return 0


# ----------------------------------------------------------------------- ps

def cmd_ps(args: argparse.Namespace) -> int:
    defaults = {
        "workers": None, "pmf": None, "a": None, "spectrum": None,
        "variant": "plain", "m": 0.0, "eta": None, "steps": 10_000,
        "blowup": 1e6, "decay": 1e-6, "seed": _env_seed(), "out": None,
    }
    cfg = _merge(defaults, _load_config(args.config, "ps"), args)
    variant = _check_variant(cfg)
    problem = _build_problem(cfg)
    eta = float(_require(cfg, "eta", "--eta"))
    if eta <= 0:
        raise CliUsage("--eta must be positive")
    if (cfg["workers"] is None) == (cfg["pmf"] is None):
        raise CliUsage("provide exactly one of --workers / --pmf")
    seed = int(cfg["seed"])
    if cfg["workers"] is not None:
        scheduler = RoundRobin(int(cfg["workers"]))
    else:
        scheduler = SampledDelay(_parse_pmf(cfg["pmf"]), seed=seed)
    if variant == "shifted" and isinstance(scheduler, SampledDelay):
        raise CliUsage("shifted momentum needs --workers (per-worker velocities)")

    t0 = time.time()
    run = run_ps(
        problem, scheduler, OptimizerSpec(variant, eta, float(cfg["m"])),
        int(cfg["steps"]), seed=seed, mode="expectation",
        blowup_factor=float(cfg["blowup"]), decay_factor=float(cfg["decay"]),
    )
    files = {}
    if cfg["out"]:
        lines = ["step,norm"] + [f"{s},{n!r}" for s, n in enumerate(run.norms)]
        files["trajectory.csv"] = "\n".join(lines) + "\n"
        hlines = ["delay,frequency"] + [f"{k},{f!r}" for k, f in delay_histogram(run)]
        files["delays.csv"] = "\n".join(hlines) + "\n"
    return _report(run.verdict, "ps", cfg, {"seed": seed}, files, t0)


# --------------------------------------------------------------------- plot

def _read_plot_csv(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliFailure(f"cannot read {path}: {exc}") from None
    lines = raw.split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise CliFailure("line 1: file is empty")
    header = lines[0].split(",")
    if len(header) < 2:
        raise CliFailure("line 1: need at least two comma-separated columns")
    ncol = len(header)
    cells: list[list[str]] = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != ncol:
            raise CliFailure(f"line {i}: expected {ncol} fields, got {len(parts)}")
        cells.append(parts)
    if not cells:
        raise CliFailure("no data rows")

    def parse(cell: str) -> float | None:
        s = cell.strip()
        if s == "":
            return None
        return float(s)  # ValueError handled by callers per column

    # x column must be numeric everywhere
    xs: list[float | None] = []
    for i, row in enumerate(cells, start=2):
        try:
            xs.append(parse(row[0]))
        except ValueError:
            raise CliFailure(f"line {i}: x value {row[0]!r} is not numeric") from None

    keep: list[int] = []
    columns: dict[int, list[float | None]] = {}
    for j in range(1, ncol):
        vals: list[float | None] = []
        bad_line = None
        n_numeric = 0
        for i, row in enumerate(cells, start=2):
            try:
                v = parse(row[j])
            except ValueError:
                if bad_line is None:
                    bad_line = i
                vals.append(None)
                continue
            if v is not None:
                n_numeric += 1
            vals.append(v)
        if bad_line is not None and n_numeric > 0:
            raise CliFailure(
                f"line {bad_line}: column {header[j]!r} mixes numbers and text"
            )
        if bad_line is not None:
            print(f"skipping non-numeric column {header[j]!r}", file=sys.stderr)
            continue
        keep.append(j)
        columns[j] = vals
    if not keep:
        raise CliFailure("no numeric series column to plot")

    out_headers = [header[0]] + [header[j] for j in keep]
    out_rows = [
        tuple([xs[r]] + [columns[j][r] for j in keep]) for r in range(len(cells))
    ]
    return out_headers, out_rows


def cmd_plot(args: argparse.Namespace) -> int:
    headers, rows = _read_plot_csv(args.csv)
    try:
        svg = render_line_chart(headers, rows, title=args.title)
    except ValueError as exc:
        raise CliFailure(str(exc)) from None
    _write_text(Path(args.out_svg), svg)
    print(f"wrote {args.out_svg}")
    return 0


# ------------------------------------------------------------------- verify

def cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import CRITERIA, run_criteria

    known = [c[0] for c in CRITERIA]
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise CliUsage(f"unknown criterion name(s): {', '.join(unknown)}; "
                           f"known: {', '.join(known)}")
    else:
        names = known
    results = run_criteria(names=names, out_dir=args.out)
    width = max(len(n) for n, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    n_pass = sum(1 for _, ok, _ in results if ok)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


# --------------------------------------------------------------------- main

def _add_common_model_flags(p: argparse.ArgumentParser, tau_help: str) -> None:
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--m", type=float, default=None, help="momentum coefficient")
    p.add_argument("--tau", default=None, help=tau_help)
    p.add_argument("--pmf", default=None, help="delay pmf, uniform:LO,HI or gauss:MU")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staleness-lab",
        description="Stability of gradient descent with stale updates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="stability threshold across delays")
    _add_common_model_flags(p, "constant delay(s): N, N,M,..., or LO..HI")
    p.add_argument("--a", type=float, default=None, help="curvature (sharpness)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--svg", default=None, help="also render the curve to this SVG")
    p.add_argument("--config", default=None, help="JSON config or manifest to replay")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("roots", help="characteristic roots at one operating point")
    _add_common_model_flags(p, "constant delay")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("simulate", help="run the delayed dynamics once")
    _add_common_model_flags(p, "constant delay")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--spectrum", default=None, help="comma-separated eigenvalues")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--blowup", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--init", choices=("top_eigvec", "random_unit"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--record-every", dest="record_every", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("escape-curve", help="escape step per step size")
    _add_common_model_flags(p, "constant delay")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--spectrum", default=None)
    p.add_argument("--etas", default=None, help="comma-separated step sizes (ascending)")
    p.add_argument("--eta-range", dest="eta_range", default=None, help="LO:HI:COUNT")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--blowup", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_escape_curve)

    p = sub.add_parser("ps", help="asynchronous parameter-server emulation")
    p.add_argument("--workers", type=int, default=None, help="round-robin worker count")
    p.add_argument("--pmf", default=None, help="sampled-delay pmf")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--spectrum", default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--blowup", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_ps)

    p = sub.add_parser("plot", help="render a CSV as a standalone SVG line chart")
    p.add_argument("csv", help="input CSV (first column is x)")
    p.add_argument("out_svg", help="output SVG path")
    p.add_argument("--title", default=None)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--only", default=None, help="comma-separated criterion names")
    p.add_argument("--out", default=None, help="directory for verification artifacts")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NoThreshold, NoConvergence, UndecidedAtProbe) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CliFailure, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # library-level validation; reaching here means a bad flag value
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
