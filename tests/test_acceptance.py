"""Full acceptance gate, one test per criterion.

The heavy lifting lives in staleness_lab.acceptance; this module runs the
whole battery once per session and reports each criterion as its own test so
a regression shows up as a named failure, not a blob.  Run with -s to see the
per-criterion detail lines even when everything passes.
"""

import hashlib
from itertools import islice
from types import SimpleNamespace

import pytest

from staleness_lab import acceptance, cli
from staleness_lab.acceptance import CRITERIA, run_criteria

NAMES = [name for name, _, _ in CRITERIA]

# The verify table's details that come from staleness_lab alone, bit for
# bit.  A new criterion adds one row here or in UNFROZEN; no row moves.
FROZEN = {
    "exact-threshold": "max |numeric - closed form| = 7.812e-09 over tau 0..64",
    "taylor-accuracy": "max |1/eta* - (2tau+1)/pi| = 0.045070 over tau 1..64",
    "inverse-linear": "slope=0.636498 (rel err 1.91e-04 vs 2/pi), R^2=0.99999998",
    "momentum-direction": ("momentum eta* falls with m (min gap 0.0047), "
                           "shifted rises (min gap 0.0106)"),
    "stochastic-inverse": ("uniform(1,b) R^2=1.000000, discrete-gaussian R^2=0.999973 "
                           "for 1/eta* vs E[tau]"),
    "sim-root-agreement": "539 grid points, 0 disagreements",
    "mode-reduction": "50 random SPD problems, 0 verdict mismatches",
    "ps-equivalence": ("15 (W, variant) trajectory pairs, max per-step diff 0.0e+00; "
                       "PS threshold rel err 0.0013"),
    "empirical-threshold": "5 operating points, worst rel err 0.0013 vs root-based",
}
UNFROZEN = {
    "power-iteration": "quotes errors against numpy's eigh, which varies between "
                       "BLAS/LAPACK builds",
    "root-finder": "quotes errors against np.roots, which varies between "
                   "BLAS/LAPACK builds",
    "determinism": "reports command-line runs in subprocesses",
}


@pytest.fixture(scope="session")
def acceptance_results():
    results = run_criteria()
    return {name: (ok, detail) for name, ok, detail in results}


@pytest.mark.parametrize("name", NAMES)
def test_criterion(acceptance_results, name):
    ok, detail = acceptance_results[name]
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_battery_names(acceptance_results):
    assert NAMES == [
        "exact-threshold", "taylor-accuracy", "inverse-linear", "momentum-direction",
        "stochastic-inverse", "sim-root-agreement", "mode-reduction", "ps-equivalence",
        "empirical-threshold", "power-iteration", "root-finder", "determinism",
    ]
    assert list(acceptance_results) == NAMES
    assert not set(FROZEN) & set(UNFROZEN)
    assert sorted(FROZEN.keys() | UNFROZEN.keys()) == sorted(NAMES)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_detail(acceptance_results, name):
    assert acceptance_results[name][1] == FROZEN[name]


def test_frozen_table_is_the_combined_freeze():
    # the first nine rows, in battery order, hash to the one digest that
    # froze them together before each detail was frozen on its own
    h = hashlib.sha256()
    for name, detail in islice(FROZEN.items(), 9):
        h.update(f"{name}: {detail}\n".encode())
    assert h.hexdigest() == "7cf708f6805195c14dc7a5d310b2ee06fa5ae0da70b0027ce27b6d17a00f7162"


@pytest.mark.parametrize("names", [["no-such"], ["taylor-accuracy", "no-such"]])
def test_unknown_name_raises_before_any_criterion_runs(monkeypatch, names):
    calls = []

    def counted(ctx, out_dir):
        calls.append(1)
        return True, ""

    monkeypatch.setattr(acceptance, "CRITERIA", [(n, counted, b) for n, _, b in CRITERIA])
    with pytest.raises(ValueError, match=r"^unknown criterion name\(s\): no-such; "
                                         r"known: exact-threshold, taylor-accuracy, "):
        run_criteria(names)
    assert calls == []
    # the counter is wired: a known name alone runs its criterion
    assert run_criteria(["taylor-accuracy"]) == [("taylor-accuracy", True, "")]
    assert calls == [1]


def _one_timed_criterion(monkeypatch, budget, elapsed):
    """Make ``CRITERIA`` one passing criterion with ``budget``, run on a clock
    that reads ``elapsed`` seconds across it."""
    monkeypatch.setattr(acceptance, "CRITERIA", [("timed", lambda ctx, out_dir: (True, "ok"),
                                                  budget)])
    readings = iter([100.0, 100.0 + elapsed])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(monotonic=readings.__next__))


def test_a_passing_criterion_past_its_budget_fails(monkeypatch):
    _one_timed_criterion(monkeypatch, 1.0, 2.0)
    assert run_criteria() == [("timed", False, "ok; exceeded 1s budget")]


@pytest.mark.parametrize("elapsed", [0.0, 2.0, 1e9])
def test_a_criterion_with_no_budget_passes_at_any_elapsed_time(monkeypatch, elapsed):
    _one_timed_criterion(monkeypatch, None, elapsed)
    assert run_criteria() == [("timed", True, "ok")]


def test_verify_prints_an_overrun_criterion_as_failed(monkeypatch, capsys):
    _one_timed_criterion(monkeypatch, 1.0, 2.0)
    assert cli.main(["verify", "--only", "timed"]) == 1
    assert capsys.readouterr().out == ("timed  FAIL  ok; exceeded 1s budget\n"
                                       "0/1 criteria passed\n")


# sha256 of the CSV artifacts that verify --out writes from these criteria
ARTIFACTS = {
    "taylor_accuracy.csv": "b27fdc1a00b896912907980e0943ed05c1e0b3288143e97203f0e369ef3661d2",
    "momentum_direction.csv": "9cc1fdc4577ce49eb9b77cfcc1be353fc151f62feb091b3c3b8994f9d76fb309",
}


def test_frozen_artifacts(tmp_path):
    # written in process, where the determinism criterion writes them in
    # subprocesses
    results = run_criteria(["taylor-accuracy", "momentum-direction"], out_dir=tmp_path)
    assert [(name, ok) for name, ok, _ in results] == [
        ("taylor-accuracy", True), ("momentum-direction", True)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACTS)
    for name, digest in ARTIFACTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestGateSensitivity:
    """The gate must fail when the thing it checks is actually wrong."""

    def test_taylor_mutation_is_caught(self, monkeypatch):
        import staleness_lab.acceptance as acc

        real = acc.taylor_inverse_threshold
        monkeypatch.setattr(acc, "taylor_inverse_threshold",
                            lambda tau: real(tau) + 0.2)
        (name, ok, detail), = run_criteria(names=["taylor-accuracy"])
        assert name == "taylor-accuracy"
        assert not ok

    def test_crash_reported_as_failure_not_abort(self, monkeypatch):
        import staleness_lab.acceptance as acc

        def boom(tau):
            raise RuntimeError("induced fault")

        monkeypatch.setattr(acc, "taylor_inverse_threshold", boom)
        results = run_criteria(names=["taylor-accuracy"])
        (name, ok, detail), = results
        assert not ok
        assert "RuntimeError" in detail and "induced fault" in detail
