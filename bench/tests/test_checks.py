"""The bench's output rechecks reject malformed witnesses as wrong answers."""

import checks


def test_cover_check_rejects_a_point_outside_the_cover():
    op = {"alpha": 3, "genus": 1, "degrees": [[3]]}
    witness = {"alpha": 3, "x": ["(0 1 2)"], "y": [""], "z": [], "last_z": "(0 1 3)"}
    problems = checks.check_cover(op, witness)
    assert problems and "outside" in problems[0]
