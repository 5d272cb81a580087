"""The ladder's rungs (tests/ladder.py) keep their pinned answers."""

import tracemalloc

import pytest
from ladder import RUNGS, SMALL, answer, expected

from boolps.cofase import solve_cofase


@pytest.mark.parametrize("name", SMALL)
def test_small_rungs_keep_their_answers(name):
    assert answer(RUNGS[name]) == expected(RUNGS[name])


def test_asyn_family_at_fourteen_variables_stays_under_100_mib():
    # 27 classes of 14 variables keep two masks of 2**14 bits per variable;
    # no per-state closure is built
    rung = RUNGS["asyn-n14-seed0"]
    instance = rung.build()
    tracemalloc.start()
    try:
        result = solve_cofase(instance, rung.max_phases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result and result.explored == rung.explored
    assert peak < 100 * 2**20
