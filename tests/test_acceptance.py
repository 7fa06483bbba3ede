"""Full acceptance gate, one test per criterion.

The heavy lifting lives in staleness_lab.acceptance; this module runs the
whole battery once per session and reports each criterion as its own test so
a regression shows up as a named failure, not a blob.  Run with -s to see the
per-criterion detail lines even when everything passes.
"""

import hashlib

import pytest

from staleness_lab.acceptance import CRITERIA, run_criteria

NAMES = [name for name, _, _ in CRITERIA]
# Left out of the frozen details: power-iteration and root-finder quote
# errors against numpy's eigh and np.roots, which vary between BLAS and
# LAPACK builds, and determinism reports command-line runs in subprocesses.
NOT_FROZEN = ("power-iteration", "root-finder", "determinism")


@pytest.fixture(scope="session")
def acceptance_results():
    results = run_criteria()
    return {name: (ok, detail) for name, ok, detail in results}


@pytest.mark.parametrize("name", NAMES)
def test_criterion(acceptance_results, name):
    ok, detail = acceptance_results[name]
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_all_twelve_present(acceptance_results):
    assert len(acceptance_results) == 12


def test_frozen_details(acceptance_results):
    # the verify table's numbers that come from staleness_lab alone, bit for bit
    h = hashlib.sha256()
    for name in NAMES:
        if name not in NOT_FROZEN:
            h.update(f"{name}: {acceptance_results[name][1]}\n".encode())
    assert h.hexdigest() == "7cf708f6805195c14dc7a5d310b2ee06fa5ae0da70b0027ce27b6d17a00f7162"


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
