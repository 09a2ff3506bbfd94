"""The allowlist of tools/reach.py names functions that exist.

The reachability trace itself runs `so3g2 verify` under a profiler and
stays out of the test suite: `python3 tools/reach.py`.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def test_allowlist_names_defined_functions():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    defined = reach.defined_functions()
    allowed = reach.read_allowlist()
    assert "verify.suite_einstein.<locals>.on_known_orbit" in allowed
    assert sorted(set(allowed) - set(defined)) == []
