"""Shared fixtures for the experiment suite.

Every module here regenerates one experiment from DESIGN.md §4 (F1–F3,
E1–E14, A1–A3, and the control-arm halves of E22 and E23).  Workload
sizes are chosen so the full suite runs in minutes; the *shape* of each
result (who wins, by roughly what factor) is the
reproduction target, not absolute numbers — see EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SciArray, define_array


def dense_2d(side, seed=0, name="A"):
    rng = np.random.default_rng(seed)
    schema = define_array(f"{name}_t", {"v": "float"}, ["x", "y"])
    return SciArray.from_numpy(
        schema, rng.normal(size=(side, side)), name=name
    )


def dense_1d(n, seed=0, name="A", attr="v"):
    rng = np.random.default_rng(seed)
    schema = define_array(f"{name}_t", {attr: "float"}, ["x"])
    return SciArray.from_numpy(schema, rng.normal(size=n), name=name)


@pytest.fixture(scope="session")
def grid_tmpdir(tmp_path_factory):
    return tmp_path_factory.mktemp("grid")
