"""The library names that perfbench's tracer depends on must keep resolving.

perfbench/run.py derives ``stab5.slow_fallbacks``, ``stab6.zr4_fallback_share``
and ``pl3d.short_share`` from the calls of wrapped targets it looks up by
qualified name, so a renamed target reads 0 instead of failing.  This test
reads perfbench and never edits it.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

# pl3d calls PL2.query and StabEmpty2.empty on objects, so both are wrapped
# only through pl3d's imports of the two classes; unwrapped, range2d's query
# time would be booked to pl3d and pl3d.short_share would read 0
COUNTED = ("SlowStab5.query", "ZR4Slow.query", "ZR4Fast.query", "StabEmpty2.empty", "PL2.query")


def _target(owner, attr):
    # the tracer patches a class's own attribute, so it must be defined in
    # the class body, not inherited
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_counted_targets_are_wrapped():
    wrapped = {_target(owner, attr).__qualname__ for owner, attr, _ in tracing.Tracer().crossings()}
    assert set(COUNTED) <= wrapped, sorted(set(COUNTED) - wrapped)


def test_named_targets_resolve():
    for layer, path in tracing.ENTRY_POINTS + tracing.EXTRA:
        owner = importlib.import_module(f"boxstab.{layer}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert callable(_target(owner, attr)), (layer, path)
