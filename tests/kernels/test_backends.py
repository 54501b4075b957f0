"""Which banded-solve path a host takes, and the sticky fall-back to LAPACK."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import kernels, obs
from repro.ctmc.batch import batch_steady_state
from repro.kernels import cext
from repro.models.jsas import PAPER_PARAMETERS, build_appserver_model

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def fresh_cext(tmp_path, monkeypatch):
    """An unloaded C kernel with an empty build cache.

    Returns the ``bin`` directory that is this test's whole ``PATH``.
    Everything is restored afterwards, so no fall-back state leaks.
    """
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_failed", False)
    return bin_dir


def _solve_banded():
    values = PAPER_PARAMETERS.to_dict()
    values["Tstart_long_as"] = np.linspace(5.0, 60.0, 4)
    return batch_steady_state(
        build_appserver_model(11), values, 4, method="banded"
    )


def _demotions(recorder):
    return [r for r in recorder.records if r["name"] == "kernels.demoted"]


class TestLadder:
    """The two rungs: C when the host can build it, LAPACK otherwise."""

    def test_numpy_always_available(self, fresh_cext):
        # No compiler and no cached build: LAPACK answers, silently.
        with obs.observe() as recorder:
            pis = _solve_banded()
        np.testing.assert_allclose(pis.sum(axis=1), 1.0, rtol=1e-12)
        assert kernels.backend_name() == "numpy"
        assert not _demotions(recorder)

    def test_current_backend_is_available(self):
        expected = "cext" if cext.probe() else "numpy"
        assert kernels.backend_name() == expected


def test_failed_build_falls_back_to_lapack(fresh_cext, tmp_path, monkeypatch):
    """A compiler that fails: the LAPACK vector, one event, for good."""
    log = tmp_path / "cc.log"
    fake_cc = fresh_cext / "cc"
    fake_cc.write_text(f"#!/bin/sh\necho run >> {log}\nexit 1\n")
    fake_cc.chmod(0o755)
    with monkeypatch.context() as patch:
        patch.setattr(cext, "load", lambda: None)
        lapack = _solve_banded()
    assert kernels.backend_name() == "cext"  # a compiler is on PATH

    with obs.observe() as recorder:
        pis = _solve_banded()
        again = _solve_banded()
    assert np.array_equal(pis, lapack)
    assert np.array_equal(again, lapack)
    assert kernels.backend_name() == "numpy"
    (event,) = _demotions(recorder)
    assert event["fields"]["backend"] == "cext"
    assert log.read_text().splitlines() == ["run"]  # no second build


class TestEnvironmentSelection:
    """A fresh process picks its rung from PATH and the build cache."""

    def _backend_under_env(self, bin_dir, cache):
        env = dict(os.environ)
        env["PATH"] = str(bin_dir)
        env["REPRO_KERNEL_CACHE"] = str(cache)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import kernels; print(kernels.backend_name())",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_env_forces_numpy(self, tmp_path):
        # No compiler on PATH, nothing cached.
        assert self._backend_under_env(tmp_path, tmp_path / "cache") == "numpy"

    def test_env_auto_matches_ladder(self, tmp_path):
        # A compiler on PATH selects the C rung, and reporting it builds
        # nothing (the stand-in compiler would fail if it ran).
        (tmp_path / "cc").symlink_to("/bin/false")
        cache = tmp_path / "cache"
        assert self._backend_under_env(tmp_path, cache) == "cext"
        assert not cache.exists()
