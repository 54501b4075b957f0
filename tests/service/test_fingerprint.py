"""Fingerprint stability and sensitivity tests."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.models.jsas import CONFIG_1, CONFIG_2, PAPER_PARAMETERS
from repro.service.errors import BadRequest
from repro.service.fingerprint import (
    HierarchyFingerprinter,
    hierarchy_fingerprint,
    model_fingerprint,
    parameter_fingerprint,
    solve_fingerprint,
)


@pytest.fixture
def structure():
    return hierarchy_fingerprint(CONFIG_1.build_hierarchy())


class TestParameterFingerprint:
    def test_int_and_float_unify(self):
        assert parameter_fingerprint({"x": 2}) == parameter_fingerprint(
            {"x": 2.0}
        )

    def test_non_numeric_rejected(self):
        with pytest.raises(BadRequest):
            parameter_fingerprint({"x": "fast"})

    def test_non_finite_rejected(self):
        with pytest.raises(BadRequest):
            parameter_fingerprint({"x": float("nan")})


class TestStructureHashes:
    def test_same_model_same_hash(self):
        a = model_fingerprint(CONFIG_1.build_appserver_submodel())
        b = model_fingerprint(CONFIG_1.build_appserver_submodel())
        assert a == b

    def test_fresh_hierarchy_builds_hash_identically(self):
        assert hierarchy_fingerprint(
            CONFIG_1.build_hierarchy()
        ) == hierarchy_fingerprint(CONFIG_1.build_hierarchy())

    def test_different_shapes_differ(self):
        assert hierarchy_fingerprint(
            CONFIG_1.build_hierarchy()
        ) != hierarchy_fingerprint(CONFIG_2.build_hierarchy())

    def test_sha256_hex(self, structure):
        assert len(structure) == 64
        int(structure, 16)  # raises if not hex


class TestSolveFingerprint:
    def test_value_order_irrelevant(self, structure):
        values = PAPER_PARAMETERS.to_dict()
        shuffled = dict(reversed(list(values.items())))
        assert solve_fingerprint(structure, values) == solve_fingerprint(
            structure, shuffled
        )

    def test_sensitive_to_values(self, structure):
        values = PAPER_PARAMETERS.to_dict()
        changed = dict(values)
        changed["La_as"] *= 1.0000001
        assert solve_fingerprint(structure, values) != solve_fingerprint(
            structure, changed
        )

    def test_sensitive_to_method_abstraction_kind(self, structure):
        values = PAPER_PARAMETERS.to_dict()
        base = solve_fingerprint(structure, values)
        assert base != solve_fingerprint(structure, values, method="gth")
        assert base != solve_fingerprint(
            structure, values, abstraction="flow"
        )
        assert base != solve_fingerprint(structure, values, kind="sweep")

    def test_extra_fields_fold_in(self, structure):
        values = PAPER_PARAMETERS.to_dict()
        a = solve_fingerprint(structure, values, kind="sweep", grid=[1.0])
        b = solve_fingerprint(structure, values, kind="sweep", grid=[2.0])
        assert a != b

    def test_stable_across_processes(self, structure):
        """The content address survives a fresh interpreter.

        PYTHONHASHSEED varies between processes, so this catches any
        accidental dependence on dict iteration or hash order.
        """
        script = (
            "from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS\n"
            "from repro.service.fingerprint import (\n"
            "    hierarchy_fingerprint, solve_fingerprint)\n"
            "print(solve_fingerprint(\n"
            "    hierarchy_fingerprint(CONFIG_1.build_hierarchy()),\n"
            "    PAPER_PARAMETERS.to_dict()))\n"
        )
        import repro

        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == solve_fingerprint(
            structure, PAPER_PARAMETERS.to_dict()
        )


class TestHierarchyFingerprinter:
    def test_request_memo_matches_direct(self, structure):
        fingerprinter = HierarchyFingerprinter()
        values = parameter_fingerprint(PAPER_PARAMETERS.to_dict())
        memoized = fingerprinter.request(structure, values)
        assert memoized == solve_fingerprint(structure, values)
        # Second call answers from the memo and agrees.
        assert fingerprinter.request(structure, values) == memoized
        assert fingerprinter.request(
            structure, values, method="gth"
        ) != memoized

    def test_request_memo_is_bounded(self):
        fingerprinter = HierarchyFingerprinter()
        fingerprinter.MAX_REQUEST_MEMO = 4
        for i in range(10):
            fingerprinter.request("s", {"x": float(i)})
        assert len(fingerprinter._requests) <= 4

    def test_caches_per_key(self):
        fingerprinter = HierarchyFingerprinter()
        hierarchy = CONFIG_1.build_hierarchy()
        first = fingerprinter.structure(("a",), hierarchy)
        # Same key short-circuits (even handed a different hierarchy).
        assert fingerprinter.structure(("a",), CONFIG_2.build_hierarchy()) \
            == first
        assert fingerprinter.structure(("b",), CONFIG_2.build_hierarchy()) \
            != first
