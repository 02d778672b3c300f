"""Every library definition has a caller outside the tests.

A module-level function or class, or a non-dunder method, in
src/paqft/*.py must be referenced from src/ or from a non-test file of
perfbench/.  Code that only its own unit tests reach is deleted, or put on
a user path: each step of the chain in PAPER.md is run by the acceptance
criterion that checks it.  KEEP is empty; a name in it (a kept class keeps
its methods) would be exempt, with the reason.  CLI commands are reached
through their decorator and are exempt.

References are read from the syntax tree: a name, an attribute or an import.
A method counts as used when some attribute of that name is read; a
module-level definition also when the bare name or an import of it appears.
Uses inside the definition's own body, or inside another definition without
a caller, do not count, so deleting an API also flags the helpers only it
used.  An attribute is matched by its receiver where the syntax names it:
`X.m` and `mod.X.m` reach only class X's `m`, `mod.f` only the module-level
`f` of library module `mod`, and an attribute of a foreign module (`np.exp`)
or a name imported from one reaches nothing.  Any other receiver (`self`, an
instance) reaches the methods of that name of every class.

The same discipline holds for the parameters of every library module, with
calls matched to definitions the same way (a constructor by its class
name).  A parameter with a default must be passed, by position or by name,
by some call from src/ or perfbench/ outside its own body; one that every
such call sets only to its default expression is a single-valued knob.  Both
kinds become module constants, unless the parameter is in KNOBS with a
reason.  And some such call must leave the parameter out: a default that
every library call overrides serves only the tests, so the parameter is
required.  A definition in KEEP is no exception: no library call reaches it,
so nothing shows that a default of its is ever needed, and its parameters
are required or constants.

And every attribute that the `__init__` of a library class assigns on
`self` is read, as an attribute load of that name, somewhere in src/ or in
a non-test file of perfbench/: state that only the tests read is deleted.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DUNDER = re.compile(r"^__\w+__$")

KEEP = {}


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
    """(qualified name, owner, first line, last line) per candidate; the
    owner is the class of a method and None at module level."""
    mod = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef) and _is_cli_command(node):
                continue
            yield f"{mod}.{node.name}", None, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not DUNDER.match(item.name)):
                    yield (f"{mod}.{node.name}.{item.name}", node.name,
                           item.lineno, item.end_lineno)


def _files():
    """The library modules, and they with the non-test perfbench files."""
    sources = sorted((ROOT / "src" / "paqft").glob("*.py"))
    return sources, sources + [
        p for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")]


def _classes(sources):
    return {node.name for path in sources
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)}


def _ours(node):
    """Whether an ImportFrom imports from the library."""
    return node.level or node.module.split(".")[0] == "paqft"


def _imports(tree):
    """Imported name -> the stem of the library module it binds, or None
    for a foreign module or a name imported from one.  Names imported from
    a library module are looked up by name and are left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if not _ours(node):
                    bound[alias.asname or alias.name] = None
                elif node.module in (None, "paqft"):
                    bound[alias.asname or alias.name] = alias.name
    return bound


def _where(node, bound, classes):
    """Whom a name or attribute read can reach: "bare" for a name,
    ("class", X) or ("module", mod) for a receiver that names a library
    class or module, "object" for any other receiver, and None for a
    foreign module or a name imported from one."""
    if isinstance(node, ast.Name):
        return None if bound.get(node.id, "") is None else "bare"
    v = node.value
    if isinstance(v, (ast.Name, ast.Attribute)):
        name = v.id if isinstance(v, ast.Name) else v.attr
        if name in classes:
            return "class", name
        if isinstance(v, ast.Name) and v.id in bound:
            return None if bound[v.id] is None else ("module", bound[v.id])
    return "object"


def _reaches(where, mod, owner):
    """Whether a read from `where` can reach a definition of module `mod`
    owned by class `owner` (None at module level)."""
    if owner is None:
        return where in ("bare", ("module", mod))
    return where in ("object", ("class", owner))


def _references(tree, classes):
    """(name, line, where) for every name the module reads."""
    bound = _imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, _where(node, bound, classes)
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, _where(node, bound, classes)
        elif isinstance(node, ast.ImportFrom) and _ours(node):
            for alias in node.names:
                yield alias.name, node.lineno, "bare"


def _calls(tree, classes):
    """(callee name, where, call) for every call the module makes."""
    bound = _imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name:
                yield name, _where(f, bound, classes), node


def _defaulted(path, tree):
    """(qualified parameter, callee name, owner, positional index or None,
    default, first line, last line) per parameter with a default; a
    constructor is called by its class name at module level."""
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
            init = method and fn.name == "__init__"
            callee = cls.name if init else fn.name
            owner = cls.name if cls and not init else None
            qual = ".".join(n.name for n in (cls, fn) if n)
            a = fn.args
            pos = a.posonlyargs + a.args
            start = len(pos) - len(a.defaults)  # first defaulted position
            params = [(i - method, pos[i], d)  # a caller passes no self
                      for i, d in enumerate(a.defaults, start)]
            params += [(None, arg, d) for arg, d
                       in zip(a.kwonlyargs, a.kw_defaults) if d]
            for i, arg, d in params:
                yield (f"{mod}.{qual}.{arg.arg}", callee, owner, i, d,
                       fn.lineno, fn.end_lineno)


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
    those that every call passes only as its default expression, and those
    that no call leaves out."""
    sources, callers = _files()
    classes = _classes(sources)
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in callers}
    calls = {}  # callee name -> [(path, where, call)]
    for path, tree in trees.items():
        for name, where, call in _calls(tree, classes):
            calls.setdefault(name, []).append((path, where, call))
    uncalled, single, always = [], [], []
    for path in sources:
        for qual, callee, owner, index, default, first, last in _defaulted(
                path, trees[path]):
            values = [_passed(c, qual.rsplit(".", 1)[1], index)
                      for p, where, c in calls.get(callee, ())
                      if _reaches(where, path.stem, owner)
                      and not (p == path and first <= c.lineno <= last)]
            passed = [v for v in values if v is not None]
            if not passed:
                uncalled.append(qual)
            elif all(v is not ... and ast.dump(v) == ast.dump(default)
                     for v in passed):
                single.append(qual)
            elif None not in values:
                always.append(qual)
    return uncalled, single, always


def _kept(qual):
    return qual in KEEP or qual.rsplit(".", 1)[0] in KEEP


def uncalled():
    """Qualified names of the definitions without a caller, kept ones too."""
    sources, callers = _files()
    classes = _classes(sources)
    refs = {}  # name -> [(path, line, where)]
    defs = []  # (path, qualified name, owner, first line, last line)
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line, where in _references(tree, classes):
            refs.setdefault(name, []).append((path, line, where))
        if path in sources:
            defs += [(path, *d) for d in _definitions(path, tree)]
    dead = set()
    while True:  # a caller without a caller of its own calls nothing
        spans = [(p, a, b) for p, q, _, a, b in defs
                 if q in dead and not _kept(q)]
        now = {q for path, q, owner, first, last in defs
               if not any(_reaches(where, path.stem, owner)
                          and not (p == path and first <= line <= last)
                          and not any(p == s and a <= line <= b
                                      for s, a, b in spans)
                          for p, line, where in refs.get(q.rsplit(".", 1)[1],
                                                         ()))}
        if now == dead:
            return sorted(dead)
        dead = now


def unread_attributes():
    """Qualified `self` attributes that a library `__init__` assigns and
    that no library or perfbench code loads."""
    sources, callers = _files()
    loaded = {node.attr for path in callers
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    inits = [(path.stem, cls.name, fn) for path in sources
             for cls in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(cls, ast.ClassDef)
             for fn in cls.body
             if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
    return sorted({f"{mod}.{cls}.{node.attr}" for mod, cls, fn in inits
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "self"
                   and node.attr not in loaded})


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
    uncalled, single, _ = knobs()
    assert sorted(uncalled + single) == sorted(KNOBS), (
        "defaulted parameters set to one value only; make them module "
        "constants or list them in KNOBS with a reason: "
        + ", ".join(sorted(uncalled + single)))


def test_every_default_is_relied_on_by_a_library_call():
    # a default that every library call overrides serves only the tests
    always = knobs()[2]
    assert always == [], ("every call outside the tests passes these; "
                          "make them required: " + ", ".join(always))


def test_every_attribute_set_in_init_is_read():
    unread = unread_attributes()
    assert unread == [], ("only tests read these attributes; delete them: "
                          + ", ".join(unread))
