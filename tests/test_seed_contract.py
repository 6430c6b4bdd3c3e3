"""Seed contract: for the same (seed, shots), sampled tables, trajectory
branch counts, trajectory averages and Pauli tomography counts stay bit for
bit what ``bench/seed_contract.json`` recorded.  The file is only read."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/ is on sys.path only from here)

import spapt  # noqa: E402

CASES = [(label, builder, args, shots) for label, builder, args in workloads.SHOT_STATES for shots in workloads.SHOT_BUDGETS]
#: the numpy release, with the OpenBLAS its wheel ships, on which the digests were recorded
RECORDED_ON = "2.4.6"


@pytest.fixture(scope="module")
def stored():
    return workloads.load_contract()


def test_contract_covers_every_state_and_budget(stored):
    assert sorted(stored) == sorted(f"{label}@{shots}" for label, _, _, shots in CASES)


@pytest.mark.parametrize("label,builder,args,shots", CASES, ids=[f"{c[0]}@{c[3]}" for c in CASES])
def test_sampled_output_matches_recorded_digest(stored, label, builder, args, shots):
    rho = getattr(spapt, builder)(*args)
    assert workloads.contract_digest(rho, shots) == stored[f"{label}@{shots}"], (
        f"digest moved: it was recorded on numpy {RECORDED_ON} and its OpenBLAS, this run has numpy {np.__version__}; "
        "another numpy may change the Generator streams (NEP 19) or the BLAS products"
    )
