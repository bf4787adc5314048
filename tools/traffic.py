"""List the lines of a checkout's package that no non-test caller runs.

Under a ``sys.settrace`` limited to the files of CHECKOUT's
``src/modalfuse``, it runs every caller of the package outside
``tests/``:

* ``perfbench/run.py``'s ``run(mf, wl, 7, 0.0, trace)`` for every
  workload, untraced and traced;
* ``bench.main`` for each algorithm on scenario 2; once with a
  ``--config`` file that sets every key of ``config.CONFIG_KEYS``,
  [scenario] included, and the non-default ``--prior`` and ``--rmse``;
  once with ``--jobs 2``; and a small ``table1``, whose config file
  sets every key but the [scenario] section, which ``table1`` refuses;
* the four demos, in a temporary working directory.

The import of the package is traced too.

It then prints, by module, each executable line of a function body that
none of them ran, with ``raise`` beside a line inside a raise statement
and ``except`` beside one inside an except clause. What is left
unmarked is a path that only tests reach, a numerical fallback or a
branch none of the callers takes. Lines run only in the ``--jobs 2``
workers are not seen: each worker traces into its own memory.

Usage: python tools/traffic.py [CHECKOUT]   (default: the current directory)

A function's first line counts as run once its module is imported,
since its ``def`` statement runs then. The whole run takes about 90 s
on a 2-core VM.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ALGORITHMS = ("pf", "ts", "sma", "dma")
# every key of config.CONFIG_KEYS (main checks that none is missing), at
# values that keep the run short
CONFIG_TEXT = {
    "model": {"sigma_angle": "0.1", "sigma_range": "1.0", "range_max": "2000.0",
              "a": "1 0 0 0; 0 1 0 0; 1 0 1 0; 0 1 0 1", "q": "1 0 0 0; 0 1 0 0; 0 0 10 0; 0 0 0 10"},
    "simulation": {"horizon": "270", "x0": "1 1 200 200", "truth_noise_scale": "1e-4"},
    "scenario": {"failures": "0 10 20 1.0; 0 25 30 0.8", "losses": "1 40 50"},
}
SMALL = ["--particles", "100", "--runs", "2", "--seed", "3"]


class Collector:
    """Context manager that records, per file under ``package``, the lines
    run while it is active: {path: set of line numbers}."""

    def __init__(self, package: Path):
        self.prefix = str(Path(package).resolve()) + os.sep
        self.ran: dict[str, set[int]] = defaultdict(set)

    def _global(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        lines = self.ran[path]
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def _function_codes(code: types.CodeType):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            # a function's locals are optimised; a class body's are not
            if const.co_flags & 0x1:  # inspect.CO_OPTIMIZED
                yield const
            yield from _function_codes(const)


def executable_lines(path: Path) -> set[int]:
    """Lines of ``path`` that hold bytecode of a function body (module and
    class bodies run on import, so they are left out)."""
    module = compile(path.read_text(), str(path), "exec")
    return {line for code in _function_codes(module) for _, _, line in code.co_lines() if line is not None}


def error_lines(tree: ast.AST) -> dict[int, str]:
    """{line: 'raise' or 'except'} for each line inside a raise statement
    or an except clause."""
    marks = {}
    for node in ast.walk(tree):
        kind = "raise" if isinstance(node, ast.Raise) else "except" if isinstance(node, ast.ExceptHandler) else None
        if kind is not None:
            for line in range(node.lineno, node.end_lineno + 1):
                marks.setdefault(line, kind)
    return marks


def unrun_lines(package: Path, ran: dict[str, set[int]]) -> dict[str, list[tuple[int, str, str]]]:
    """{module file name: [(line, mark, source), ...]} of the executable
    lines under ``package`` not in ``ran``; mark is 'raise', 'except' or ''."""
    out = {}
    for path in sorted(Path(package).resolve().glob("*.py")):
        source = path.read_text().splitlines()
        marks = error_lines(ast.parse("\n".join(source)))
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        out[path.name] = [(line, marks.get(line, ""), source[line - 1].strip()) for line in missed]
    return out


def _config_file(mf, path: Path, scenario: bool = True) -> str:
    """Write CONFIG_TEXT to ``path``, without [scenario] unless ``scenario``."""
    given = {section: set(keys) for section, keys in CONFIG_TEXT.items()}
    wanted = {section: set(keys) for section, keys in mf.config.CONFIG_KEYS.items()}
    if given != wanted:
        raise SystemExit(f"error: CONFIG_TEXT sets {given}, but config.CONFIG_KEYS holds {wanted}")
    path.write_text("".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                            for section, keys in CONFIG_TEXT.items() if scenario or section != "scenario"))
    return str(path)


def _bench(mf, *args) -> None:
    if mf.bench.main(list(args)) != 0:
        raise SystemExit(f"error: bench {' '.join(args)} failed")


def _callers(run, mf, checkout: Path, tmp: Path):
    """(name, call) of every caller to trace."""
    for wl in run.WORKLOADS.values():
        for trace in (False, True):
            yield f"perfbench {wl.name} --trace {int(trace)}", lambda wl=wl, trace=trace: run.run(mf, wl, 7, 0.0, trace)
    for alg in ALGORITHMS:
        yield f"bench {alg} scenario 2", lambda alg=alg: _bench(
            mf, "--algorithm", alg, "--scenario", "2", "--out", str(tmp / alg), *SMALL)
    yield "bench --config", lambda: _bench(
        mf, "--algorithm", "dma", "--config", _config_file(mf, tmp / "every_key.cfg"), "--prior", "biased",
        "--rmse", "position", "--out", str(tmp / "config"), *SMALL)
    yield "bench --jobs 2", lambda: _bench(
        mf, "--algorithm", "pf", "--scenario", "1", "--jobs", "2", "--out", str(tmp / "jobs"), *SMALL)
    yield "bench table1", lambda: _bench(
        mf, "table1", "--config", _config_file(mf, tmp / "no_scenario.cfg", scenario=False), "--particles", "50",
        "--runs", "2", "--out", str(tmp / "t1"))
    for demo in sorted((checkout / "demos").glob("*.py")):
        yield f"demo {demo.name}", lambda demo=demo: runpy.run_path(str(demo), run_name="__main__")


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/traffic.py [CHECKOUT]", file=sys.stderr)
        return 2
    from digests import _load_run  # this script's sibling

    checkout = Path(argv[0] if argv else ".").resolve()
    package = checkout / "src" / "modalfuse"
    collector = Collector(package)
    with collector:
        run, mf = _load_run(checkout)
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)   # the demos write their files into the working directory
        try:
            for name, call in _callers(run, mf, checkout, Path(tmp)):
                print(f"# {name}", file=sys.stderr, flush=True)
                with contextlib.redirect_stdout(io.StringIO()), collector:
                    call()
        finally:
            os.chdir(cwd)
    total = marked = 0
    for module, lines in unrun_lines(package, collector.ran).items():
        if lines:
            print(module)
        for line, mark, text in lines:
            print(f"  {line:5d}  {mark:<6}  {text}")
        total += len(lines)
        marked += sum(1 for _, mark, _ in lines if mark)
    print(f"{total} executable lines not run, {marked} of them in a raise or an except clause")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
