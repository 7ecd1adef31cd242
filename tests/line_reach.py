"""Line reach: the lines of src/fklab that no run executes.

Under sys.settrace it runs the twelve scenario runners at the golden sizes
of tests/test_golden.py, then run_constants(d=2, alpha=3.0), serializing
each record as the golden test does, then the pytest targets given, if any,
in this process.  It prints each line of a function in src/fklab that the
function's code object marks executable (co_lines()) and that nothing
executed, as path:line: text, and then their count.  Module and class
bodies run on import and are left out.

    PYTHONPATH=src python tests/line_reach.py
    PYTHONPATH=src python tests/line_reach.py tests --ignore=tests/test_acceptance.py \\
        --ignore=tests/test_demos.py

The sizes are read from test_golden.py's source, so the runners need only
the standard library and fklab; pytest is imported only for targets.
pytest does not collect this file; tests/test_line_reach.py runs its core
on run_constants() alone.
"""

from __future__ import annotations

import ast
import inspect
import sys
from collections import defaultdict
from pathlib import Path

import fklab

PACKAGE = Path(fklab.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().with_name("test_golden.py")
_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def golden_sizes() -> dict:
    """SIZES of tests/test_golden.py: the runners' keyword arguments by name."""
    for node in ast.parse(GOLDEN.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SIZES"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no SIZES in {GOLDEN}")


def executable_lines(path: Path) -> set:
    """Lines that the functions defined in a source file can execute; a
    comprehension outside any function runs on import and is left out."""
    lines, todo = set(), [(compile(path.read_text(), str(path), "exec"), False)]
    while todo:
        code, in_function = todo.pop()
        function = bool(code.co_flags & inspect.CO_OPTIMIZED)
        todo.extend((c, in_function or function) for c in code.co_consts if inspect.iscode(c))
        if function and (in_function or code.co_name not in _COMPREHENSIONS):
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def reach(run, hits=None) -> dict:
    """Call run() with every line executed in the package recorded into hits,
    {filename: {line}}, which it returns.  The tracer in place before is put
    back afterwards."""
    hits = defaultdict(set) if hits is None else hits
    root = str(PACKAGE)

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None
        seen = hits[frame.f_code.co_filename]
        seen.add(frame.f_lineno)

        def step(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return step
        return step

    before = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(before)
    return hits


def unreached(hits) -> list:
    """(path relative to the package's parent, line, text) of every
    executable line of the package missing from hits."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits.get(str(path), set())):
            out.append((str(path.relative_to(PACKAGE.parents[1])), line,
                        text[line - 1].strip()))
    return out


def main(argv=None) -> int:
    from fklab.experiments import SCENARIOS, run_constants

    targets = sys.argv[1:] if argv is None else argv
    hits = defaultdict(set)
    for name, size in golden_sizes().items():
        reach(lambda: SCENARIOS[name](**size).to_json(), hits)
    reach(lambda: run_constants(d=2, alpha=3.0).to_json(), hits)
    if targets:
        import pytest
        reach(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *targets]), hits)
    missing = unreached(hits)
    for path, line, text in missing:
        print(f"{path}:{line}: {text}")
    print(f"{len(missing)} executable lines of src/fklab not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
