"""No library module imports a name it never uses, and no private helper
is defined without a reader, nor a public module-level function.

No linter runs on this tree, so an import whose last reader went away in
a refactor is caught here, from the source alone.  `__init__.py` is left
out of the import check: its imports are the package's re-exports.  A
`_private` function, class or method must be read somewhere in the
package outside its own body; tests do not count as readers.  A public
module-level function must be read in the package, in demos/ or in the
README's python code, or be named in PUBLIC_WITHOUT_READER with its
reason; a public method of a class must be read there as an attribute,
or be named in METHODS_WITHOUT_READER; a defaulted parameter of either
must be passed by some call there, or be named in DEFAULTS_WITHOUT_CALLER.
No nested function calls itself: such a closure holds itself through its
cell, and every call leaves a cycle for the cycle collector.  The
packed-monomial codec `_Enc` is named in `groebner.py` alone, every
matrix product is written in `linalg.py` alone, where mat_mul keeps it
exact, `univar.py` imports no numpy, since its packed slots outgrow int64,
and minimal polynomials and the Frobenius map are taken in
`zerodim.py` alone, where each algebra memoises its map.  A
`GroebnerBasis` is frozen when its run ends: no method but `__init__`
writes its state, save the memo `_walk` keeps, since an algebra reads the
basis once and keeps what it read.  The local
decomposition, the defect module and the checks on it (`zerodim.py`,
`excess.py`, `invariants.py`) import nothing from `rng`, so randomness
stays in building inputs.  No module holds an assert statement: python -O
strips them, so a check written as one would vanish.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qfiber"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree) -> dict:
    """Name bound by each import, anywhere in the module -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def used_names(tree) -> set:
    """Every name read in the module, quoted annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


def test_checker_finds_leftovers():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from .linalg import mat_mul, rref\n"
              "from .algebra import PolyRing\n"
              "def f(r: 'PolyRing'):\n    return mat_mul(np.eye(2), r)\n")
    assert unused_imports(source) == [(2, "os"), (4, "rref")]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def imported_modules(tree) -> set:
    """Absolute name of every module the source imports from, anywhere."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "qfiber." * (node.level > 0) + (node.module or "")
            out.add(base.rstrip("."))
            if node.module is None:  # from . import x
                out |= {f"qfiber.{a.name}" for a in node.names}
    return out


def test_module_finder():
    source = ("import numpy as np\nfrom .linalg import rref\n"
              "from . import zerodim\ndef f():\n    import heapq\n")
    assert imported_modules(ast.parse(source)) == {
        "numpy", "qfiber.linalg", "qfiber", "qfiber.zerodim", "heapq"}


def test_groebner_keeps_no_cofactor_format():
    # syzygy cofactors are the caller's: GroebnerBasis.replay_trace hands
    # out the trace on flat lists and exponent tuples, and excess._replay
    # builds the cofactors on arrays of its own
    tree = ast.parse((SRC / "groebner.py").read_text(encoding="utf-8"))
    found = imported_modules(tree)
    banned = {"numpy", "qfiber.linalg", "qfiber.zerodim"}
    assert not {m for m in found
                if any(m == b or m.startswith(b + ".") for b in banned)}


def test_univar_stays_on_python_ints():
    # pow_mod's packed slots pass 64 bits near p = 2^31: an int64 port
    # would overflow without a word
    tree = ast.parse((SRC / "univar.py").read_text(encoding="utf-8"))
    assert not {m for m in imported_modules(tree)
                if m == "numpy" or m.startswith("numpy.")}


def self_writes(source: str, cls: str) -> list:
    """(method, attribute) of each write to an attribute of self, or into
    one by subscript, in the methods of the class, __init__ left out: an
    assignment, augmented or not, or a del."""
    out = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name == "__init__":
                continue
            for n in ast.walk(fn):
                if not isinstance(n, (ast.Attribute, ast.Subscript)) or \
                        isinstance(n.ctx, ast.Load):
                    continue
                target = n.value if isinstance(n, ast.Subscript) else n
                if isinstance(target, ast.Attribute) and \
                        getattr(target.value, "id", None) == "self":
                    out.append((fn.name, target.attr))
    return sorted(out)


def test_self_write_checker_finds_writes():
    source = ("class Box:\n"
              "    def __init__(self):\n        self.a = self.b = []\n"
              "    def read(self):\n        return self.a, self.b[0]\n"
              "    def put(self):\n        self.a = 1\n"
              "    def add(self):\n        self.a += 1\n"
              "    def drop(self):\n        del self.b\n"
              "    def fill(self):\n        self.b[0] = 2\n"
              "class Other:\n    def put(self):\n        self.z = 1\n")
    assert self_writes(source, "Box") == [
        ("add", "a"), ("drop", "b"), ("fill", "b"), ("put", "a")]


def test_groebner_basis_is_frozen_after_init():
    # normal forms reduce on a table of their own and widen a codec of
    # their own, so nothing an ArtinianAlgebra read of a basis changes
    source = (SRC / "groebner.py").read_text(encoding="utf-8")
    assert self_writes(source, "GroebnerBasis") == [("_walk", "_walked")]


def private_definitions(tree) -> dict:
    """Private function, class and method names defined at module or class
    level (dunders left out) -> the node of their first definition."""
    out = {}

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    out.setdefault(name, node)
                if isinstance(node, ast.ClassDef):
                    visit(node.body)

    visit(tree.body)
    return out


def read_names(tree) -> Counter:
    """How often the code under tree reads each name or attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def unread_private_definitions(sources: dict) -> list:
    """(module, line, name) of each private definition that nothing reads
    outside its own body: a helper only its own recursion calls is dead."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = sum((read_names(t) for t in trees.values()), Counter())
    return sorted((name, node.lineno, d) for name, t in trees.items()
                  for d, node in private_definitions(t).items()
                  if read[d] == read_names(node)[d])


def test_private_checker_finds_dead_helpers():
    sources = {
        "a.py": ("def _used():\n    pass\n"
                 "def _dead():\n    pass\n"
                 "class _Box:\n"
                 "    def __init__(self):\n        self._x = _used()\n"
                 "    def _read(self):\n        return self._x\n"
                 "    def _unread(self):\n        pass\n"
                 "def _loop(n):\n    return n and _loop(n - 1)\n"),
        "b.py": "from .a import _Box\nprint(_Box()._read())\n",
    }
    assert unread_private_definitions(sources) == [
        ("a.py", 3, "_dead"), ("a.py", 10, "_unread"), ("a.py", 12, "_loop")]


def test_no_dead_private_helpers():
    sources = {name: (SRC / name).read_text(encoding="utf-8")
               for name in sorted(p.name for p in SRC.glob("*.py"))}
    assert unread_private_definitions(sources) == []


DEMOS = SRC.parents[1] / "demos"

# public functions nothing in the package or demos/ reads, and why each stays
PUBLIC_WITHOUT_READER = {
    "kernel_intersection": "a layer the benchmark tracer wraps "
                           "(perfbench/layers.py)",
    "qbar": "library API, the intrinsic defect module; README and the "
            "tests use it",
    "tangent_data": "a layer the benchmark tracer wraps; library API the "
                    "tests exercise",
}


def unread_public_functions(sources: dict, readers: list) -> list:
    """(module, line, name) of each public module-level function of the
    sources that neither they nor the reader sources read outside its own
    body."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = sum((read_names(t) for t in [*trees.values(),
                                        *map(ast.parse, readers)]),
               Counter())
    return sorted((name, node.lineno, node.name)
                  for name, t in trees.items() for node in t.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")
                  and read[node.name] == read_names(node)[node.name])


def test_public_checker_finds_dead_functions():
    sources = {
        "a.py": ("def used():\n    pass\n"
                 "def dead():\n    pass\n"
                 "def loop(n):\n    return n and loop(n - 1)\n"
                 "def _private():\n    pass\n"
                 "class Box:\n    def method(self):\n        pass\n"),
        "b.py": "from .a import used, dead\nused()\n",
    }
    demo = "from qfiber.a import loop\nprint(loop(3))\n"
    assert unread_public_functions(sources, []) == [
        ("a.py", 3, "dead"), ("a.py", 5, "loop")]
    assert unread_public_functions(sources, [demo]) == [("a.py", 3, "dead")]


def outside_readers() -> list:
    """The readers of the package outside src/: each demo script and each
    python code block of the README."""
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    return ([p.read_text(encoding="utf-8") for p in sorted(DEMOS.glob("*.py"))]
            + re.findall(r"```python\n(.*?)```", readme, re.S))


def test_no_dead_public_functions():
    sources = {name: (SRC / name).read_text(encoding="utf-8")
               for name in sorted(p.name for p in SRC.glob("*.py"))}
    unread = {name for _, _, name in unread_public_functions(
        sources, outside_readers())}
    assert unread == set(PUBLIC_WITHOUT_READER)


# public methods nothing in the package, demos/ or the README's code reads,
# and why each stays
METHODS_WITHOUT_READER = {
    "FieldSpec.inv": "library API of the field; the tests check it",
    "Ideal.contains": "library API, ideal membership; the tests use it",
    "Ideal.power": "library API; the tests build I^2 and m^k as oracles "
                   "with it",
    "PolyRing.monomial": "library API; the tests build monomials and "
                         "oracle columns with it",
    "Polynomial.leading_coeff": "library API; the Groebner oracles in the "
                                "tests use it",
}


def read_attributes(tree) -> Counter:
    """How often the code under tree reads each attribute."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def unread_public_methods(sources: dict, readers: list) -> list:
    """(module, line, Class.method) of each public method of a module-level
    class of the sources that neither they nor the reader sources read as
    an attribute outside its own body.  Only attribute reads count, so a
    function of the same name does not hide an unread method."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = sum((read_attributes(t) for t in [*trees.values(),
                                             *map(ast.parse, readers)]),
               Counter())
    return sorted((name, node.lineno, f"{cls.name}.{node.name}")
                  for name, t in trees.items() for cls in t.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")
                  and read[node.name] == read_attributes(node)[node.name])


def test_method_checker_finds_dead_methods():
    sources = {
        "a.py": ("class Box:\n"
                 "    def used(self):\n        return 1\n"
                 "    def dead(self):\n        pass\n"
                 "    def loop(self, n):\n        return n and self.loop(n)\n"
                 "    def shadowed(self):\n        pass\n"
                 "    def _private(self):\n        pass\n"
                 "def shadowed():\n    pass\n"
                 "shadowed()\n"),
        "b.py": "from .a import Box\nBox().used()\n",
    }
    demo = "from qfiber.a import Box\nBox().dead()\n"
    assert unread_public_methods(sources, []) == [
        ("a.py", 4, "Box.dead"), ("a.py", 6, "Box.loop"),
        ("a.py", 8, "Box.shadowed")]
    assert unread_public_methods(sources, [demo]) == [
        ("a.py", 6, "Box.loop"), ("a.py", 8, "Box.shadowed")]


def test_no_dead_public_methods():
    sources = {name: (SRC / name).read_text(encoding="utf-8")
               for name in sorted(p.name for p in SRC.glob("*.py"))}
    unread = {name for _, _, name in unread_public_methods(
        sources, outside_readers())}
    assert unread == set(METHODS_WITHOUT_READER)


# defaulted parameters of public functions and methods that no call in the
# package, demos/ or the README's code passes, and why each stays
DEFAULTS_WITHOUT_CALLER = {
    "main(argv)": "perfbench and the tests call main in-process with an "
                  "argument list; the console script passes none",
    "q_affine_pair(modulus)": "library API; the README documents it and "
                              "the tests pin it",
    "qlength_verify(non_licci_certified)": "the tests pin the certified "
                                           "floor; a two-sided licci "
                                           "verdict (ROADMAP item 9) sets it",
    "PolyRing.monomial(coeff)": "library API; only the tests use it",
    "Stream.randrange(b)": "library API; only the tests use it",
}


def public_callables(tree):
    """(qualified name, function node, leading positional slots a call
    fills implicitly) of each public module-level function and each public
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not f.name.startswith("_"):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in f.decorator_list)
                    yield f"{node.name}.{f.name}", f, 1 - static


def defaulted_parameters(fn, skip: int) -> dict:
    """Name of each parameter of fn with a default -> its positional slot
    in a call, or None for a keyword-only one."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    out = {a.arg: i - skip for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults)
                if d is not None})
    return out


def passes(call, name: str, slot) -> bool:
    """Whether the call hands the parameter a value: by keyword, by
    position, or through a starred argument that may hold it."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return slot is not None and len(call.args) > slot


def calls_by_name(trees) -> dict:
    """Name -> every call under the trees of a function of that name, bare
    or as an attribute."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                out.setdefault(name, []).append(node)
    return out


def unpassed_defaults(sources: dict, readers: list) -> list:
    """(module, line, 'name(parameter)') of each defaulted parameter of a
    public function or method of the sources that no call in them or in
    the reader sources passes, calls inside the function's own body left
    out."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    calls = calls_by_name([*trees.values(), *map(ast.parse, readers)])
    out = []
    for module, tree in trees.items():
        for qual, fn, skip in public_callables(tree):
            own = {id(c) for c in calls_by_name([fn]).get(fn.name, [])}
            outside = [c for c in calls.get(fn.name, []) if id(c) not in own]
            out += [(module, fn.lineno, f"{qual}({param})")
                    for param, slot in defaulted_parameters(fn, skip).items()
                    if not any(passes(c, param, slot) for c in outside)]
    return sorted(out)


def test_default_checker_finds_unpassed_parameters():
    sources = {
        "a.py": ("def f(x, y=1, *, z=2, w=3):\n    return f(x, w=4)\n"
                 "def g(a=0, b=0):\n    pass\n"
                 "def _h(k=0):\n    pass\n"
                 "class Box:\n"
                 "    def put(self, item, at=0):\n        pass\n"
                 "    @staticmethod\n"
                 "    def make(size=1):\n        pass\n"
                 "    def _keep(self, k=0):\n        pass\n"),
        "b.py": ("from .a import Box, f, g\n"
                 "f(1, z=5)\ng(1)\nBox.make(3)\nBox().put(1)\n"),
    }
    assert unpassed_defaults(sources, []) == [
        ("a.py", 1, "f(w)"), ("a.py", 1, "f(y)"), ("a.py", 3, "g(b)"),
        ("a.py", 8, "Box.put(at)")]
    demo = "from qfiber.a import Box, f, g\nf(1, 2, **{})\ng(*[1, 2])\n"
    assert unpassed_defaults(sources, [demo]) == [("a.py", 8, "Box.put(at)")]


def test_no_unpassed_defaults():
    sources = {name: (SRC / name).read_text(encoding="utf-8")
               for name in sorted(p.name for p in SRC.glob("*.py"))}
    unpassed = {name for _, _, name in unpassed_defaults(
        sources, outside_readers())}
    assert unpassed == set(DEFAULTS_WITHOUT_CALLER)


def self_referencing_closures(source: str) -> list:
    """(outer, inner) for every function nested in a function whose body
    reads its own name."""
    out = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name
                   for n in ast.walk(inner)):
                out.append((outer.name, inner.name))
    return out


def test_closure_checker_finds_recursion():
    source = ("def f(n):\n"
              "    def walk(k):\n        return k and walk(k - 1)\n"
              "    def leaf(k):\n        return k\n"
              "    return walk(n) + leaf(n)\n"
              "def g(n):\n    return n and g(n - 1)\n")
    assert self_referencing_closures(source) == [("f", "walk")]


@pytest.mark.parametrize("name", MODULES)
def test_no_self_referencing_closures(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert self_referencing_closures(source) == []


def named(tree) -> set:
    """Every identifier the module defines, imports, reads or writes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name.split(".")[-1], node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            out.add(node.name)
    return out


def test_packed_codec_stays_in_groebner():
    # the packed-monomial codec is the Groebner engine's own: no other
    # module imports it, builds one or reads its fields
    naming = [p.name for p in sorted(SRC.glob("*.py"))
              if "_Enc" in named(ast.parse(p.read_text(encoding="utf-8")))]
    assert naming == ["groebner.py"]


def matrix_products(source: str) -> list:
    """(line, form) of each matrix product the source writes itself: the @
    operator, and dot, matmul or einsum, as a function or a method."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            out.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in PRODUCTS:
            out.append((node.lineno, node.id))
    return sorted(out)


PRODUCTS = ("dot", "matmul", "einsum")


def test_product_checker_finds_products():
    source = ("import numpy as np\nfrom numpy import einsum\n"
              "a = np.eye(2) @ np.eye(2)\nb = np.dot(a, a)\n"
              "c = a.dot(a)\nd = np.matmul(a, a)\ne = einsum('ij', a)\n"
              "a @= b\nf = a * b\n")
    assert matrix_products(source) == [
        (3, "@"), (4, "dot"), (5, "dot"), (6, "matmul"), (7, "einsum"),
        (8, "@")]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg.py"])
def test_products_only_in_linalg(name):
    # float64 and int64 products are exact only within mat_mul's bounds
    source = (SRC / name).read_text(encoding="utf-8")
    assert matrix_products(source) == []


def calls_of(source: str, name: str) -> list:
    """Lines where the source calls a function of that name, bare or as
    an attribute."""
    return [node.lineno
            for node in calls_by_name([ast.parse(source)]).get(name, [])]


def test_call_finder():
    source = ("from .zerodim import f\nimport qfiber.zerodim as z\n"
              "f(1)\nz.f(2)\ng = f\n")
    assert calls_of(source, "f") == [3, 4]


@pytest.mark.parametrize("name", ["minpoly_of_vector", "frobenius"])
def test_minimal_polynomials_only_in_zerodim(name):
    # every reader of locality or of the radical goes through the
    # algebra's memoised Frobenius map (at_origin, local_decompose,
    # nilpotent_parts) instead of taking polynomials or a map of its own
    calling = [p.name for p in sorted(SRC.glob("*.py"))
               if calls_of(p.read_text(encoding="utf-8"), name)]
    assert calling == ["zerodim.py"]


@pytest.mark.parametrize("name", ["zerodim.py", "excess.py", "invariants.py"])
def test_no_randomness_in_locality_or_reports(name):
    # the split, the defect report and the checks on it draw nothing: no
    # stream, no fork
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert "qfiber.rng" not in imported_modules(tree)
    assert not {"Stream", "fork", "randrange"} & named(tree)


def assert_statements(source: str) -> list:
    """Lines of the source's assert statements."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_finder():
    source = ("assert x, 'm'\ndef f():\n    assert_equal(1)\n"
              "    assert (y)\nasserted = 1\n")
    assert assert_statements(source) == [1, 4]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(name):
    # a runtime check raises an exception of its own, which python -O
    # keeps
    source = (SRC / name).read_text(encoding="utf-8")
    assert assert_statements(source) == []
