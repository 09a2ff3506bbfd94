"""Which functions of src/so3g2 the acceptance contract never runs.

Traces `so3g2 verify` and every `so3g2 ...` line of the README's
"Command line" block, in this process with sys.setprofile, imports
included, and lists each function or method of src/so3g2 (dunders and
lambdas aside) that no call entered.  A function may stay unreached
only when tools/reach_allowlist.txt names it, one `name: reason` line
each, with name the module and qualified name (`variety.tau_lambda`,
`verify.suite_einstein.<locals>.on_known_orbit`).

    python3 tools/reach.py

Exit 0 when every unreached function is on the allowlist, every
allowlist entry is unreached and no command is a usage error; 1
otherwise, with the offenders listed.  It takes about 12 s on two
shared cores (Python 3.11), too slow for tier-1, which only checks
that every allowlist entry is defined (tests/test_reach.py).
"""

from __future__ import annotations

import ast
import contextlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "so3g2"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"


def defined_functions() -> dict[str, tuple[str, int]]:
    """module.qualname -> (file, first line) of every def in the package,
    with qualified names built as Python builds co_qualname."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    if not (child.name.startswith("__") and child.name.endswith("__")):
                        out[f"{module}.{qual}"] = (str(path), child.lineno)
                    visit(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def readme_commands() -> list[list[str]]:
    """argv of each `so3g2 ...` line of the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("so3g2 ")]


def reached_functions(commands) -> tuple[set[str], list[list[str]]]:
    """module.qualname of every package function entered while the
    package is imported and each command runs, and the commands that
    ended as usage errors (exit 2), which trace nothing of their own."""
    codes = set()
    usage_errors = []

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)
    try:
        from so3g2 import cli

        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:   # argparse rejects the command line
                    status = exc.code
            if status == 2:
                usage_errors.append(argv)
    finally:
        sys.setprofile(None)
    reached = {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
               if Path(c.co_filename).parent == PACKAGE}
    return reached, usage_errors


def read_allowlist(path=ALLOWLIST) -> dict[str, str]:
    """name -> reason; blank lines and # comments are skipped."""
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, _, reason = line.partition(":")
            if not reason.strip():
                raise ValueError(f"allowlist entry without a reason: {line!r}")
            out[name.strip()] = reason.strip()
    return out


def main() -> int:
    commands = readme_commands()
    if ["verify"] not in commands:
        commands.insert(0, ["verify"])
    defined = defined_functions()
    reached, usage_errors = reached_functions(commands)
    unreached = sorted(set(defined) - reached)
    allowed = read_allowlist()
    missing = [n for n in unreached if n not in allowed]
    stale = sorted(n for n in allowed if n not in unreached)
    print(f"{len(commands)} commands traced; {len(defined)} functions, "
          f"{len(unreached)} unreached, {len(unreached) - len(missing)} of them allowlisted")
    for name in missing:
        path, line = defined[name]
        print(f"unreached, not allowlisted: {name} ({Path(path).relative_to(ROOT)}:{line})")
    for name in stale:
        print(f"allowlisted but {'reached' if name in defined else 'not defined'}: {name}")
    for argv in usage_errors:
        print(f"usage error: so3g2 {shlex.join(argv)}")
    return 1 if missing or stale or usage_errors else 0


if __name__ == "__main__":
    sys.exit(main())
