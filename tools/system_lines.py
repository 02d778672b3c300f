"""Library statements that no system path runs.

    python3 tools/system_lines.py

Run from the root of a paqft checkout.  Traces, with the standard library's
trace module, what a user of paqft runs:

- the acceptance battery, acceptance.run_all(None);
- every CLI command, in-process through click's CliRunner into a temporary
  directory, with the argument and config of PIN_INPUTS in tests/test_cli.py
  and its defaults otherwise;
- the explicit examples of tests/test_cli_contract.py, inputs that the CLI
  must reject (exit 2) or fail (exit 3) among them: the expressions of
  EXPRESSION_EXAMPLES, the algebra files of ALGEBRA_EXAMPLES and the config
  keys of KEY_EXAMPLES, each expected to give its exit code;
- one pass of each perfbench part at --size tiny, through the part's own
  setup and items (perfbench/run.py is not called: it writes under
  perfbench/out/).

Then it prints, per module of src/paqft, the statements that none of these
ran, grouped by the function that holds them, and last the number of
functions of which no statement ran.  A statement is a line that holds an
instruction of a function body; module and class bodies run at import and
are not counted.  The full run takes about ten seconds.
"""

import ast
import inspect
import sys
import tempfile
import trace
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "paqft"
SEED = 4
# code objects of their own that are no function body: a comprehension at
# module or class level runs at import
INLINE = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def statements(path):
    """{line: qualified name of the function that holds it} for the lines
    with an instruction of a function body, the def line itself left out."""
    source = path.read_text(encoding="utf-8")
    owner = {}

    def scope(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    for line in range(child.lineno, child.end_lineno + 1):
                        owner[line] = name
                scope(child, name + ".")
            else:
                scope(child, prefix)

    scope(ast.parse(source), "")
    lines = {}

    def walk(code, in_body):
        body = in_body or (code.co_flags & inspect.CO_NEWLOCALS
                           and code.co_name not in INLINE)
        if body:
            lines.update((line, owner.get(line, "<lambda>"))
                         for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, body)

    walk(compile(source, str(path), "exec"), False)
    return lines


def not_run(work):
    """Run work() under the tracer: {module: {function: (lines not run,
    statement count)}} for every function of src/paqft that has a statement
    that did not run."""
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=sorted({sys.prefix, sys.exec_prefix,
                                            sys.base_prefix}))
    tracer.runfunc(work)
    hit = {}
    for (filename, line) in tracer.results().counts:
        hit.setdefault(filename, set()).add(line)
    hit = {Path(f).resolve(): lines for f, lines in hit.items()}
    report = {}
    for path in sorted(LIBRARY.glob("*.py")):
        by_fn = {}
        for line, fn in statements(path).items():
            by_fn.setdefault(fn, []).append(line)
        ran = hit.get(path.resolve(), set())
        missed = {fn: (sorted(set(lines) - ran), len(set(lines)))
                  for fn, lines in by_fn.items()}
        missed = {fn: m for fn, m in missed.items() if m[0]}
        if missed:
            report[path.stem] = missed
    return report


def _invoke_cli(out):
    from click.testing import CliRunner

    from paqft import cli
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import PIN_INPUTS
    import test_cli_contract as contract

    runner = CliRunner()
    for name in sorted(cli.main.commands):
        arg, text = PIN_INPUTS.get(name, (None, None))
        args = [name] + ([arg] if arg else [])
        if text:
            cfg = Path(out) / ("%s.cfg" % name)
            cfg.write_text(text)
            args += ["--config", str(cfg)]
        result = runner.invoke(cli.main, args + [
            "--out", out, "--seed", str(SEED), "--label", "trace"])
        if result.exit_code:
            raise SystemExit("paqft %s exited %d:\n%s"
                             % (" ".join(args), result.exit_code,
                                result.output))
    for (command, expr), want in contract.EXPRESSION_EXAMPLES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = contract.run_expression(Path(tmp), command, expr, "x")
        if code != want:
            raise SystemExit("paqft %s %r exited %d, not %d"
                             % (command, expr, code, want))
    for text, want in contract.ALGEBRA_EXAMPLES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, output = contract.run_algebra(tmp, text)
        if code != want:
            raise SystemExit("paqft gns on the algebra file %r exited %d, "
                             "not %d:\n%s" % (text[:60], code, want, output))
    for (command, key, value), want in contract.KEY_EXAMPLES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, output = contract.run_key_case(tmp, command, key, value)
        if code != want:
            raise SystemExit("paqft %s with %s = %s exited %d, not %d:\n%s"
                             % (command, key, value, code, want, output))


def _perfbench_parts():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    from run import WORKLOADS

    for parts in WORKLOADS.values():
        for part in parts:
            mod = __import__(part)
            state = mod.setup(SEED, "tiny", harness.OFF)
            tally = harness.Tally()  # an item may read what earlier ones left
            for kind, fn in mod.items(state, SEED, 0, "tiny"):
                if not fn(harness.OFF, tally):
                    raise SystemExit("perfbench %s item %s failed"
                                     % (part, kind))


def system_paths():
    from paqft import acceptance

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the battery counts its own
        results = acceptance.run_all(None)
    failed = [r.line() for r in results if not r.passed]
    if failed:
        raise SystemExit("acceptance failed:\n" + "\n".join(failed))
    with tempfile.TemporaryDirectory() as out:
        _invoke_cli(out)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _perfbench_parts()


def _spans(lines):
    """"3-5, 9" for [3, 4, 5, 9]."""
    out, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            out.append(str(start) if start == prev else "%d-%d" % (start,
                                                                   prev))
            start = line
    return ", ".join(out)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    report = not_run(system_paths)
    total = wholly = 0
    for mod, missed in report.items():
        n = sum(len(lines) for lines, _ in missed.values())
        total += n
        print("%s.py: %d statements not run" % (mod, n))
        for fn, (lines, count) in sorted(missed.items(),
                                         key=lambda kv: kv[1][0][0]):
            whole = " (all %d)" % count if len(lines) == count else ""
            wholly += bool(whole)
            print("  %s%s: %s" % (fn, whole, _spans(lines)))
    print("%d statements of src/paqft not run" % total)
    print("%d functions of src/paqft with no statement run" % wholly)


if __name__ == "__main__":
    main()
