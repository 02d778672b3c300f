"""Every library definition has a caller outside the tests.

A module-level function or class, or a non-dunder method, in
src/paqft/*.py must be referenced from src/ or from a non-test file of
perfbench/.  Code that only its own unit tests reach is deleted, unless it
implements a step of the chain in PAPER.md or a README promise; those names
(a kept class keeps its methods) sit in KEEP with the reason.  CLI commands
are reached through their decorator and are exempt.

References are read from the syntax tree: a name, an attribute or an import.
A method counts as used when some attribute of that name is read; a
module-level definition also when the bare name or an import of it appears.
Uses inside the definition's own body, or inside another definition without
a caller, do not count, so deleting an API also flags the helpers only it
used.  Matching is by name alone: a method that shares its name with another
attribute (say `exp` and `np.exp`) always counts as used.

The same discipline holds for the parameters of every library module: a
parameter with a default must be passed, by position or by name, by some
call from src/ or perfbench/ outside its own body, and one that every such
call sets only to its default expression is a single-valued knob.  Both
kinds become module constants, unless the parameter is in KNOBS with a
reason.  A definition in KEEP is no exception: no library call reaches it,
so nothing shows that a default of its is ever needed, and its parameters
are required or constants.  Calls are matched to definitions by name, as
references are above (a constructor by its class name).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DUNDER = re.compile(r"^__\w+__$")

KEEP = {
    "graphs.eg_subgraphs":
        "step 5: subgraph enumeration for recursive renormalization",
    "microlocal.microcausal_check":
        "step 7: the microcausality configuration check",
    "microlocal.product_compatible":
        "step 7: the wavefront criterion for multiplying distributions",
    "dist1d.principal_value":
        "step 6: the principal value, the simplest extension across 0",
    "algebra.gns_uniqueness_check":
        "step 8: GNS uniqueness via an explicit intertwiner",
    "quantization.multilocal_injectivity_check":
        "step 2: products of local functionals determine their factors",
    "functionals.GeneralizedLagrangian":
        "step 1: the cutoff action whose linearization is the wave operator",
    "functionals.PolyFunctional.func_derivative":
        "step 2: functional derivatives",
    "quantization.time_order_op":
        "step 3: the time-ordering operator",
    "exact.ExactComplex.conjugate":
        "the involution of Q(i), which an exact GNS construction needs",
}


KNOBS = {
    "microlocal.wf_estimate_2d.threshold":
        "perfbench/wavefront.py passes it by name, at its default",
}


def _is_cli_command(fn):
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "command":
            return True
    return False


def _definitions(path, tree):
    """(qualified name, is method, first line, last line) per candidate."""
    mod = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef) and _is_cli_command(node):
                continue
            yield f"{mod}.{node.name}", False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not DUNDER.match(item.name)):
                    yield (f"{mod}.{node.name}.{item.name}", True,
                           item.lineno, item.end_lineno)


def _references(tree):
    """(name, line, is attribute) for every name the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def _files():
    """The library modules, and they with the non-test perfbench files."""
    sources = sorted((ROOT / "src" / "paqft").glob("*.py"))
    return sources, sources + [
        p for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")]


def _calls(tree):
    """(callee name, call) for every call the module makes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name:
                yield name, node


def _defaulted(path, tree):
    """(qualified parameter, callee name, positional index or None, default,
    first line, last line) per parameter with a default."""
    mod = path.stem
    scopes = [(None, tree.body)] + [(c, c.body) for c in tree.body
                                     if isinstance(c, ast.ClassDef)]
    for cls, body in scopes:
        for fn in body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            callee = cls.name if method and fn.name == "__init__" else fn.name
            qual = ".".join(n.name for n in (cls, fn) if n)
            a = fn.args
            pos = a.posonlyargs + a.args
            start = len(pos) - len(a.defaults)  # first defaulted position
            params = [(i - method, pos[i], d)  # a caller passes no self
                      for i, d in enumerate(a.defaults, start)]
            params += [(None, arg, d) for arg, d
                       in zip(a.kwonlyargs, a.kw_defaults) if d]
            for i, arg, d in params:
                yield (f"{mod}.{qual}.{arg.arg}", callee, i, d, fn.lineno,
                       fn.end_lineno)


def _passed(call, name, index):
    """The value node a call passes for the parameter, None when it passes
    none, and ... when it may pass one through * or **."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
        if kw.arg is None:
            return ...
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return ...
        if i == index:
            return arg
    return None


def knobs():
    """Qualified defaulted parameters of the library that no call passes,
    and those that every call passes only as its default expression."""
    sources, callers = _files()
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in callers}
    calls = {}  # callee name -> [(path, call)]
    for path, tree in trees.items():
        for name, call in _calls(tree):
            calls.setdefault(name, []).append((path, call))
    uncalled, single = [], []
    for path in sources:
        for qual, callee, index, default, first, last in _defaulted(
                path, trees[path]):
            values = [_passed(c, qual.rsplit(".", 1)[1], index)
                      for p, c in calls.get(callee, ())
                      if not (p == path and first <= c.lineno <= last)]
            values = [v for v in values if v is not None]
            if not values:
                uncalled.append(qual)
            elif all(v is not ... and ast.dump(v) == ast.dump(default)
                     for v in values):
                single.append(qual)
    return uncalled, single


def _kept(qual):
    return qual in KEEP or qual.rsplit(".", 1)[0] in KEEP


def uncalled():
    """Qualified names of the definitions without a caller, kept ones too."""
    sources, callers = _files()
    refs = {}  # name -> [(path, line, is attribute)]
    defs = []  # (path, qualified name, is method, first line, last line)
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line, attr in _references(tree):
            refs.setdefault(name, []).append((path, line, attr))
        if path in sources:
            defs += [(path, *d) for d in _definitions(path, tree)]
    dead = set()
    while True:  # a caller without a caller of its own calls nothing
        spans = [(p, a, b) for p, q, _, a, b in defs
                 if q in dead and not _kept(q)]
        now = {q for path, q, is_method, first, last in defs
               if not any((attr or not is_method)
                          and not (p == path and first <= line <= last)
                          and not any(p == s and a <= line <= b
                                      for s, a, b in spans)
                          for p, line, attr in refs.get(q.rsplit(".", 1)[1],
                                                        ()))}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_library_definition_has_a_caller():
    missing = [q for q in uncalled() if not _kept(q)]
    assert not missing, ("only tests call these; delete them or add them "
                         "to KEEP with a reason: " + ", ".join(missing))


def test_keep_list_names_existing_uncalled_definitions():
    # a kept name that gained a caller, or was deleted, leaves the list
    assert sorted(set(KEEP) - set(uncalled())) == []


def test_every_defaulted_parameter_has_a_caller():
    missing = [q for q in knobs()[0] if q not in KNOBS]
    assert not missing, ("no call outside the tests passes these; make them "
                         "module constants or add them to KNOBS with a "
                         "reason: " + ", ".join(missing))


def test_single_valued_parameters_are_listed():
    # what is left of the settable values: a parameter every call passes
    # only at its default is a constant in disguise
    uncalled, single = knobs()
    assert sorted(uncalled + single) == sorted(KNOBS), (
        "defaulted parameters set to one value only; make them module "
        "constants or list them in KNOBS with a reason: "
        + ", ".join(sorted(uncalled + single)))
