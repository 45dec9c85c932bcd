"""An oracle for plan lengths that does not use the Euclidean algorithm.

T and -T are inverse moves and R is an involution, so every move can be
undone by one move, and the fewest moves that take 0 to f also untangle f.
A breadth-first search from 0 over T, -T and R, with `apply_move` as the
only arithmetic, gives that exact distance for every value within the radius.
The search is `move_distances` in scripts/move_distance.py, so the script's
report and these tests share one copy of it.
"""

import importlib.util
from pathlib import Path

import pytest

from tanglegcd.euclid import Variant
from tanglegcd.tangles import plan_metrics, plan_untangle, tangle_number

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "move_distance.py"
_spec = importlib.util.spec_from_file_location("move_distance", SCRIPT)
move_distance = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(move_distance)

RADIUS = 16


def shortest_path(found, value):
    moves = []
    while found[value][2] is not None:
        _, _, value, move = found[value]
        moves.append(move)
    return moves[::-1]


@pytest.fixture(scope="module")
def distances():
    return move_distance.move_distances(RADIUS)


def test_known_distances(distances):
    by_text = {str(value): distance for value, (distance, *_) in distances.items()}
    # 8/5 is the golden plan of 8 moves; 2/3 needs 5, 7/2 needs 6.
    expected = {"0": 0, "inf": 1, "1": 1, "-1": 1, "1/2": 3, "2/3": 5, "7/2": 6, "8/5": 8}
    assert {text: by_text[text] for text in expected} == expected
    assert max(by_text.values()) == RADIUS


def test_every_path_folds_to_its_value(distances):
    for value in distances:
        path = shortest_path(distances, value)
        assert len(path) == distances[value][0]
        assert tangle_number(path) == value


@pytest.mark.parametrize("policy", [Variant.REGULAR, Variant.LEAST_ABSOLUTE])
def test_plan_totals_equal_the_move_distance(distances, policy):
    mismatches = [
        str(value) for value, (distance, *_) in distances.items()
        if plan_metrics(plan_untangle(value, policy)).total != distance
    ]
    assert mismatches == []


def test_lar_plans_use_the_fewest_rotations_from_magnitude_one_up(distances):
    # Below magnitude one this fails (2/3; see test_tangles), so it is not claimed there.
    mismatches = [
        str(value) for value, (_, rotations, *_) in distances.items()
        if not value.is_infinite and abs(value.numerator) >= value.denominator
        and plan_metrics(plan_untangle(value, Variant.LEAST_ABSOLUTE)).rotations != rotations
    ]
    assert mismatches == []
