#!/usr/bin/env python3
"""Compare untangling plans with the exact move distance of every nearby value.

T and -T undo each other and R undoes itself, so a breadth-first search from
0 over the three moves finds, for every value within the radius, the fewest
moves that untangle it, and among those moves the fewest rotations.  For each
policy this reports on how many values the plan's total equals that
distance, and on how many the plan also uses the fewest rotations.

    python3 scripts/move_distance.py --radius 18
"""

import argparse
from collections import deque

from tanglegcd import ZERO, Move, Variant, apply_move, plan_metrics, plan_untangle


def move_distances(radius):
    """Map each value within `radius` moves of 0 to (distance, rotations, parent, move).

    `rotations` is the fewest rotations on any shortest path; (parent, move)
    is the last step of one shortest path.
    """
    found = {ZERO: (0, 0, None, None)}
    queue = deque([ZERO])
    while queue:
        value = queue.popleft()
        distance, rotations = found[value][:2]
        if distance == radius:
            continue
        for move in Move:
            successor = apply_move(value, move)
            turns = rotations + (move is Move.ROTATE)
            if successor not in found:
                found[successor] = (distance + 1, turns, value, move)
                queue.append(successor)
            elif found[successor][0] == distance + 1 and turns < found[successor][1]:
                found[successor] = (distance + 1, turns, value, move)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--radius", type=int, default=18,
                        help="largest move distance to search (default %(default)s)")
    args = parser.parse_args()

    found = move_distances(args.radius)
    print(f"values within {args.radius} moves of 0: {len(found)}")
    for policy in (Variant.REGULAR, Variant.LEAST_ABSOLUTE, Variant.NEGATIVE):
        shortest = fewest_rotations = 0
        for value, (distance, rotations, *_) in found.items():
            metrics = plan_metrics(plan_untangle(value, policy))
            if metrics.total == distance:
                shortest += 1
                fewest_rotations += metrics.rotations == rotations
        print(f"{policy.value:<13} plan total = distance on {shortest} of {len(found)}; "
              f"fewest rotations too on {fewest_rotations}")


if __name__ == "__main__":
    main()
