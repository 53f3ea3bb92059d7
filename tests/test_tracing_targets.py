"""Every callable the benchmark's tracer patches exists where it patches it.

The tracer in ``perfbench/tracing.py`` replaces ``owner.attribute`` for each
entry of its ``TARGETS``; a rename in the package would otherwise surface
only when a traced benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # for its dataclasses
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("owner, attribute", [target[:2] for target in tracing.TARGETS],
                         ids=[target[2] for target in tracing.TARGETS])
def test_target_is_defined_on_its_owner(owner, attribute):
    assert attribute in vars(owner), f"{owner.__name__} has no {attribute!r}"
