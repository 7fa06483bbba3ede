"""Command line front end.

Subcommands: ``threshold`` (delay sweeps of the stability boundary),
``roots`` (characteristic roots at one operating point), ``simulate`` and
``escape-curve`` (delay-recurrence trajectories), ``ps`` (parameter-server
emulation), ``plot`` (CSV to SVG), ``verify`` (self-check suite).  Each
command checks its flags before it imports its own layers: parsing and
checking flags loads only ``charpoly`` and ``errors``, so a usage error,
``--version``, ``--help`` and ``plot`` never load numpy.

Exit codes: 0 success, 1 numeric or verification failure, 2 usage error.
Configuration precedence is flags over ``--config`` JSON over defaults; the
environment variable ``STALENESS_LAB_SEED`` is read only when neither a flag
nor the config gives the seed.
Each flag is declared once, in ``FLAGS``, with the rule its value must meet,
and a config value goes through its flag's type, choices and rule: it is
accepted exactly when the same text would be accepted as the flag, and a bad
value is refused in the flag's name.  Usage errors are ValueErrors.
Data-producing commands write a manifest listing the resolved configuration
and every output file; feeding a manifest back through ``--config``
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .charpoly import (BLOWUP_FACTOR, DECAY_FACTOR, VARIANTS, DelayModel, OptimizerSpec, _check_count,
                       _check_delay, _check_momentum, _check_positive, _check_rel_tol, char_poly,
                       pmf_discrete_gaussian, pmf_uniform)
from .errors import NoConvergence, NoThreshold, UndecidedAtProbe

if TYPE_CHECKING:
    from .dynamics import SimVerdict

SEED_ENV = "STALENESS_LAB_SEED"


def _seed_value(text: str) -> int:
    """A random seed: a non-negative integer, as numpy's generators take."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid seed {text!r}: must be a non-negative integer")


def _check_step_size(flag: str, eta: float) -> None:
    """Finite and non-negative: ``simulate`` runs a zero step size itself."""
    if eta < 0:
        raise ValueError(f"{flag} must be non-negative")
    if not math.isfinite(eta):
        raise ValueError(f"{flag} must be finite, got {eta!r}")


def _step_sizes(flag: str, text: str) -> list[float]:
    """Comma-separated step sizes, each checked as ``--eta`` is."""
    try:
        etas = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse {flag} {text!r}") from None
    if not etas:
        raise ValueError(f"{flag} {text!r} names no step size")
    for eta in etas:
        _check_step_size(flag, eta)
    return etas


def _step_size_range(flag: str, text: str) -> list[float]:
    """``COUNT`` evenly spaced step sizes from ``LO`` to ``HI``, written
    ``LO:HI:COUNT``; both ends are checked as ``--eta`` is."""
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ValueError(f"{flag} must look like LO:HI:COUNT") from None
    _check_step_size(flag, lo)
    _check_step_size(flag, hi)
    if n < 2 or hi <= lo:
        raise ValueError(f"{flag} needs COUNT >= 2 and HI > LO")
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


# Every flag of the config-driven commands, with its argparse keywords and its
# value's rule, if any: ``check(flag, value)`` raises ValueError naming the
# flag.  The step-size lists' checks return the list they parsed, so
# ``escape-curve`` reads its step sizes with the function that checked them.
# The config key is the flag's name with underscores for dashes.
FLAGS = {
    "workers": dict(type=int, check=_check_count, help="round-robin worker count"),
    "variant": dict(choices=VARIANTS, help="update rule"),
    "m": dict(type=float, check=lambda flag, m: _check_momentum(m, flag),
              help="momentum coefficient"),
    "tau": dict(help="constant delay N; threshold also takes N,M,... or LO..HI"),
    "pmf": dict(help="delay pmf, uniform:LO,HI or gauss:MU"),
    "a": dict(type=float, check=_check_positive, help="curvature (sharpness)"),
    "spectrum": dict(help="comma-separated eigenvalues"),
    "eta": dict(type=float, check=_check_step_size, help="step size"),
    "etas": dict(check=_step_sizes, help="comma-separated step sizes (ascending)"),
    "eta_range": dict(check=_step_size_range, help="LO:HI:COUNT"),
    "rel_tol": dict(type=float, check=_check_rel_tol,
                    help="bracket width relative to its midpoint"),
    "steps": dict(type=int, check=_check_count, help="step budget"),
    "blowup": dict(type=float, help="divergence threshold on the distance ratio"),
    "decay": dict(type=float, help="convergence threshold on the distance ratio"),
    "init": dict(choices=("top_eigvec", "random_unit"), help="starting offset"),
    "seed": dict(type=_seed_value, help=f"random seed (default: ${SEED_ENV}, else 0)"),
    "record_every": dict(type=int, check=_check_count, help="keep every Nth trace row"),
    "out": dict(help="output: CSV path (threshold, escape-curve) or directory (simulate, ps)"),
    "svg": dict(help="also render the curve to this SVG"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class CliFailure(Exception):
    """A runtime/numeric failure; maps to exit code 1."""


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return _seed_value(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{SEED_ENV}: {exc}") from None


def _load_config(path: str | None, command: str) -> dict:
    """The JSON object in ``path``, or the configuration of the manifest there.

    Numbers keep their JSON text, so each reaches its flag's type as typed.
    """
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_int=str, parse_float=str, parse_constant=str)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if isinstance(data, dict) and "command" in data and "config" in data:
        # a manifest from an earlier run; replay its configuration
        if data["command"] != command:
            raise ValueError(f"manifest {path} was written by '{data['command']}', not '{command}'")
        data = data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return data


def _config_value(key: str, text: str):
    """Convert a config value as its flag would convert the same text."""
    flag = FLAGS[key]
    convert = flag.get("type", str)
    try:
        val = convert(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {convert.__name__} value: {text!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None
    if "choices" in flag and val not in flag["choices"]:
        raise ValueError(f"config key {key!r}: invalid choice: {text!r} "
                         f"(choose from {', '.join(flag['choices'])})")
    return val


def _configure(command: str, args: argparse.Namespace) -> dict:
    """flags > config file > defaults, every value typed and checked by its flag.

    Unknown config keys are an error, and so is a config value that no flag
    could have given: anything but a number or a string, or a null where the
    default is not null.
    """
    cfg = dict(COMMANDS[command].defaults)
    config = _load_config(args.config, command)
    unknown = sorted(set(config) - set(cfg))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for key, val in config.items():
        if isinstance(val, str):
            cfg[key] = _config_value(key, val)
        elif val is not None:
            kind = {bool: "true or false", list: "an array", dict: "an object"}[type(val)]
            raise ValueError(f"config key {key!r} must be a number or a string, not {kind}")
        elif cfg[key] is not None:
            raise ValueError(f"config key {key!r} must not be null")
    for key in cfg:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
        elif callable(cfg[key]):
            cfg[key] = cfg[key]()
        check = FLAGS[key].get("check")
        if check is not None and cfg[key] is not None:
            check(_flag(key), cfg[key])
    return cfg


def _parse_tau_values(text: str) -> list[int]:
    """The delays ``N``, ``N,M,...`` or ``LO..HI`` name; a range's ends are
    checked before its list is built."""
    text = text.strip()
    lo, sep, hi = text.partition("..")
    try:
        taus = [int(lo), int(hi)] if sep else [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse tau list {text!r}") from None
    if sep:
        lo_i, hi_i = _check_delay(taus[0]), _check_delay(taus[1])
        if hi_i < lo_i:
            raise ValueError(f"empty tau range {text!r}")
        return list(range(lo_i, hi_i + 1))
    if not taus:
        raise ValueError(f"tau list {text!r} names no delay")
    return taus


def _parse_pmf(text: str) -> DelayModel:
    kind, _, rest = text.partition(":")
    build = {"uniform": pmf_uniform, "gauss": pmf_discrete_gaussian}.get(kind)
    if build is None:
        raise ValueError(f"pmf must look like uniform:LO,HI or gauss:MU, got {text!r}")
    try:
        args = [int(p) for p in rest.split(",")]
    except ValueError:
        args = []
    if len(args) != (2 if kind == "uniform" else 1):
        raise ValueError(f"cannot parse pmf {text!r}")
    # a bad delay is reported in the library's words, before any entry is built
    return build(*args)


def _require(cfg: dict, key: str):
    if cfg[key] is None:
        raise ValueError(f"{_flag(key)} is required")
    return cfg[key]


def _delays(cfg: dict) -> list[DelayModel]:
    if (cfg["tau"] is None) == (cfg["pmf"] is None):
        raise ValueError("provide exactly one of --tau / --pmf")
    if cfg["pmf"] is not None:
        return [_parse_pmf(cfg["pmf"])]
    return [DelayModel.constant(tau) for tau in _parse_tau_values(cfg["tau"])]


def _single_delay(cfg: dict) -> DelayModel:
    delays = _delays(cfg)
    if len(delays) != 1:
        raise ValueError("this command takes a single --tau value")
    return delays[0]


def _spectrum(cfg: dict) -> list[float]:
    """The problem's eigenvalues, ``--a`` alone or the ``--spectrum`` list."""
    if (cfg["a"] is None) == (cfg["spectrum"] is None):
        raise ValueError("provide exactly one of --a / --spectrum")
    if cfg["a"] is not None:
        return [cfg["a"]]
    spectrum = cfg["spectrum"]
    try:
        vals = [float(p) for p in spectrum.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse spectrum {spectrum!r}") from None
    if not vals:
        raise ValueError("spectrum must list at least one eigenvalue")
    return vals


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
    from .dynamics import DIVERGED, UNDECIDED

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

def cmd_threshold(cfg: dict, args: argparse.Namespace) -> int:
    if cfg["svg"] and not cfg["out"]:
        raise ValueError("--svg needs --out")
    variant = cfg["variant"]
    a = _require(cfg, "a")
    delays = _delays(cfg)
    from .stability import threshold_curve
    from .svgchart import render_line_chart

    t0 = time.time()
    curve = threshold_curve(variant, a, delays, m=cfg["m"], rel_tol=cfg["rel_tol"])
    failed = [r for r in curve.rows if r.result is None]
    for r in failed:
        print(f"row x={r.x:g} failed: {r.error}", file=sys.stderr)
    good = len(curve.rows) - len(failed)

    if cfg["out"]:
        out = Path(cfg["out"])
        curve.write_csv(out)
        outputs = [out.name]
        if cfg["svg"] and not good:
            print(f"no row succeeded; {cfg['svg']} not written", file=sys.stderr)
        elif cfg["svg"]:
            svg_path = Path(cfg["svg"])
            rows = [(r.x, r.result.eta_star if r.result else None) for r in curve.rows]
            _write_text(svg_path, render_line_chart(["tau_or_Etau", "eta_star"], rows,
                                                    title=f"stability threshold ({variant})"))
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
    if good >= 2:
        print(f"fit: slope={curve.slope!r} intercept={curve.intercept!r} r_squared={curve.r_squared!r}")
    return 1 if failed else 0


# -------------------------------------------------------------------- roots

def cmd_roots(cfg: dict, args: argparse.Namespace) -> int:
    a = _require(cfg, "a")
    eta = _require(cfg, "eta")
    delay = _single_delay(cfg)
    from .roots import all_roots
    poly = char_poly(OptimizerSpec(cfg["variant"], eta, cfg["m"]), a, delay)
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
            print(f"{z.real:+.12e} {z.imag:+.12e}j  |z|={abs(z):.12e}")
        print(f"max magnitude: {rs.max_magnitude!r}")
        print(f"stable: {'yes' if stable else 'no'}")
    return 0


# ----------------------------------------------------------------- simulate

def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    spectrum = _spectrum(cfg)
    delay = _single_delay(cfg)
    eta = _require(cfg, "eta")
    from .dynamics import (UNDECIDED, QuadraticProblem, SimConfig, SimVerdict, _engine,
                           _trace_steps, simulate_expectation)

    problem = QuadraticProblem.diagonal(spectrum)
    t0 = time.time()

    # OptimizerSpec (rightly) demands eta > 0, so a zero step size is checked
    # with every other setting under a stand-in eta; it moves nothing, so its
    # run stays at the start, at the distance a run's engine starts from.
    sim_cfg = SimConfig(
        optimizer=OptimizerSpec(cfg["variant"], eta or 1.0, cfg["m"]),
        delay=delay,
        max_steps=cfg["steps"],
        blowup_factor=cfg["blowup"],
        decay_factor=cfg["decay"],
        init=cfg["init"],
        seed=cfg["seed"],
        record_every=cfg["record_every"],
        record_trace=bool(cfg["out"]),
    )
    if eta == 0.0:
        steps, n0 = sim_cfg.max_steps, _engine(problem, [sim_cfg])[2]
        trace = None
        if sim_cfg.record_trace:
            trace = tuple((s, n0) for s in _trace_steps(steps, sim_cfg.record_every))
        verdict = SimVerdict(UNDECIDED, None, 1.0, steps, trace=trace)
    else:
        verdict = simulate_expectation(problem, sim_cfg)

    files = {}
    if cfg["out"]:
        lines = ["step,norm"] + [f"{s},{n!r}" for s, n in verdict.trace]
        files["trace.csv"] = "\n".join(lines) + "\n"
    return _report(verdict, "simulate", cfg, {"seed": cfg["seed"]}, files, t0)


# ------------------------------------------------------------- escape-curve

def cmd_escape_curve(cfg: dict, args: argparse.Namespace) -> int:
    spectrum = _spectrum(cfg)
    delay = _single_delay(cfg)
    if (cfg["etas"] is None) == (cfg["eta_range"] is None):
        raise ValueError("provide exactly one of --etas / --eta-range")
    if cfg["etas"] is not None:
        etas = _step_sizes("--etas", cfg["etas"])
    else:
        etas = _step_size_range("--eta-range", cfg["eta_range"])
    from .dynamics import QuadraticProblem, escape_time_curve

    t0 = time.time()
    curve = escape_time_curve(
        QuadraticProblem.diagonal(spectrum), cfg["variant"], delay, etas, m=cfg["m"],
        max_steps=cfg["steps"], blowup_factor=cfg["blowup"], decay_factor=cfg["decay"],
    )
    if cfg["out"]:  # written first, as in _report
        out = Path(cfg["out"])
        curve.write_csv(out)
        _write_manifest(out.with_name(out.name + ".manifest.json"),
                        "escape-curve", cfg, {}, [out.name], t0)
    for eta, step in curve.rows:
        print(f"eta={eta!r}  escape_step={'-' if step is None else step}")
    return 0


# ----------------------------------------------------------------------- ps

def cmd_ps(cfg: dict, args: argparse.Namespace) -> int:
    spectrum = _spectrum(cfg)
    eta = _require(cfg, "eta")
    if (cfg["workers"] is None) == (cfg["pmf"] is None):
        raise ValueError("provide exactly one of --workers / --pmf")
    pmf = None if cfg["pmf"] is None else _parse_pmf(cfg["pmf"])
    from .dynamics import QuadraticProblem
    from .pssim import RoundRobin, SampledDelay, delay_histogram, run_ps

    problem = QuadraticProblem.diagonal(spectrum)
    seed = cfg["seed"]
    scheduler = RoundRobin(cfg["workers"]) if pmf is None else SampledDelay(pmf, seed=seed)

    t0 = time.time()
    run = run_ps(
        problem, scheduler, OptimizerSpec(cfg["variant"], eta, cfg["m"]),
        cfg["steps"], seed=seed, mode="expectation",
        blowup_factor=cfg["blowup"], decay_factor=cfg["decay"],
    )
    files = {}
    if cfg["out"]:
        lines = ["step,norm"] + [f"{s},{n!r}" for s, n in enumerate(run.norms)]
        files["trajectory.csv"] = "\n".join(lines) + "\n"
        hlines = ["delay,frequency"] + [f"{k},{f!r}" for k, f in delay_histogram(run)]
        files["delays.csv"] = "\n".join(hlines) + "\n"
    return _report(run.verdict, "ps", cfg, {"seed": seed}, files, t0)


# --------------------------------------------------------------------- plot

def _cell(text: str) -> float | str | None:
    """A CSV cell: a float, None when blank, or its text as it stands."""
    try:
        return float(text) if text.strip() else None
    except ValueError:
        return text


def _read_plot_csv(path: str):
    """A CSV's header and rows to plot.  A column holding text is refused if it
    is x or also holds numbers, and otherwise skipped with a note on stderr."""
    try:
        # read whole, so a decode error names its place in the file; a bare \r ends a line
        with open(path, encoding="utf-8-sig") as fh:
            reader = csv.reader(io.StringIO(fh.read()))
        # a blank line is one empty field, as a line of no commas is
        records = [(reader.line_num, row or [""]) for row in reader]
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure(f"cannot read {path}: {exc}") from None
    except csv.Error as exc:
        raise CliFailure(f"line {reader.line_num}: {exc}") from None
    while records and len(records[-1][1]) == 1 and records[-1][1][0].strip() == "":
        records.pop()
    if not records:
        raise CliFailure("line 1: file is empty")
    header = records.pop(0)[1]
    if len(header) < 2:
        raise CliFailure("line 1: need at least two comma-separated columns")
    for i, row in records:
        if len(row) != len(header):
            raise CliFailure(f"line {i}: expected {len(header)} fields, got {len(row)}")
    if not records:
        raise CliFailure("no data rows")
    lines, rows = zip(*records)
    headers, columns = [], []
    for j, (name, cells) in enumerate(zip(header, zip(*rows))):
        column = [_cell(c) for c in cells]
        text = [(i, v) for i, v in zip(lines, column) if isinstance(v, str)]
        if not text:
            headers.append(name)
            columns.append(column)
        elif j == 0:
            raise CliFailure(f"line {text[0][0]}: x value {text[0][1]!r} is not numeric")
        elif any(isinstance(v, float) for v in column):
            raise CliFailure(f"line {text[0][0]}: column {name!r} mixes numbers and text")
        else:
            print(f"skipping non-numeric column {name!r}", file=sys.stderr)
    if len(columns) < 2:
        raise CliFailure("no numeric series column to plot")
    return headers, list(zip(*columns))


def cmd_plot(args: argparse.Namespace) -> int:
    from .svgchart import render_line_chart

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
    names = None  # every criterion
    if args.only is not None:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            raise ValueError(f"--only {args.only!r} names no criterion")
    from .acceptance import run_criteria
    results = run_criteria(names=names, out_dir=args.out)
    width = max(len(n) for n, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    n_pass = sum(1 for _, ok, _ in results if ok)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


# --------------------------------------------------------------------- main

class Command(NamedTuple):
    handler: Callable[[dict, argparse.Namespace], int]
    help: str
    # One entry per flag, in --help order; a callable default is read only
    # when no flag or config gives its key.
    defaults: dict
    description: str | None = None


_MODEL = {"variant": "plain", "m": 0.0, "tau": None, "pmf": None, "a": None}


_VERDICT_LINES = {"blowup": BLOWUP_FACTOR, "decay": DECAY_FACTOR}

COMMANDS = {
    "threshold": Command(cmd_threshold, "stability threshold across delays", {
        **_MODEL, "rel_tol": 1e-8, "out": None, "svg": None,
    }),
    "roots": Command(cmd_roots, "characteristic roots at one operating point", {
        **_MODEL, "eta": None,
    }, description="Every root of the characteristic polynomial at one operating point. "
       "The solve takes time quadratic in the degree (about tau + 1), up to the limit "
       "--tau 10000, and memory stays bounded."),
    "simulate": Command(cmd_simulate, "run the delayed dynamics once", {
        **_MODEL, "spectrum": None, "eta": None, "steps": None, **_VERDICT_LINES,
        "init": "top_eigvec", "seed": _env_seed, "record_every": 1, "out": None,
    }),
    "escape-curve": Command(cmd_escape_curve, "escape step per step size", {
        **_MODEL, "spectrum": None, "etas": None, "eta_range": None, "steps": None,
        **_VERDICT_LINES, "out": None,
    }),
    "ps": Command(cmd_ps, "asynchronous parameter-server emulation", {
        "workers": None, "pmf": None, "variant": "plain", "m": 0.0, "a": None,
        "spectrum": None, "eta": None, "steps": 10_000, **_VERDICT_LINES,
        "seed": _env_seed, "out": None,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staleness-lab",
        description="Stability of gradient descent with stale updates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        for key in command.defaults:
            kwargs = {k: v for k, v in FLAGS[key].items() if k != "check"}
            p.add_argument(_flag(key), dest=key, default=None, **kwargs)
        if name == "roots":
            p.add_argument("--json", action="store_true", help="print the roots as JSON")
        p.add_argument("--config", default=None, help="JSON config or manifest to replay")

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
    args = build_parser().parse_args(argv)
    try:
        if args.command in COMMANDS:
            return COMMANDS[args.command].handler(_configure(args.command, args), args)
        return args.func(args)
    except (NoThreshold, NoConvergence, UndecidedAtProbe, CliFailure, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a bad flag value or combination, in the flag's or the library's words
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
