"""Print the pins of test_slow_pins that a change moves, field by field.

Run from the repository root:

    PYTHONPATH=src:tests python tests/pindiff.py [name ...]

For each ``PINS`` case (only those of the given names, when any are
given) whose value differs from ``run_case``, one line per differing
field: the case, the field, the pinned value and the value now.  The
fields are the Counters, ``bits_stored`` and the three answer digests:
``digest`` (as returned), ``sorted`` (the answer sets) and ``order``.
"""

import sys
from dataclasses import fields

from boxstab.counters import Counters
from test_slow_pins import PINS, run_case

FIELDS = (*(f.name for f in fields(Counters)), "bits_stored", "digest", "sorted", "order")


def moved(name, n):
    """(field, pinned, now) of every field of case (name, n) that moved."""
    counters, *rest = PINS[name, n]
    now_counters, *now_rest = run_case(name, n)
    old = (*counters, *rest)
    new = (*now_counters, *now_rest)
    return [(f, a, b) for f, a, b in zip(FIELDS, old, new) if a != b]


def main(names):
    for name, n in PINS:
        if names and name not in names:
            continue
        for field, old, new in moved(name, n):
            print(f"{name} {n} {field}: {old} -> {new}")


if __name__ == "__main__":
    main(sys.argv[1:])
