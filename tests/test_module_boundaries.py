"""No ffdyn module reaches into another one's private names: each uses only
what the other exports. The one exception is polyring._order_prime_power,
which the benchmark's tracer wraps by that name. Only ffield lays digits out
in an int, intfactor.power is the one loop that halves an exponent, one
slot ring serves t^n - 1 over every field but GF(2), polyring sizes slots
in one layout builder, outside ffield a FieldElem is built only by the
public functions that return one, a Poly reaches its kernel as the form
it holds, never repacked from its coefficients, one round loop splits
equal-degree factors, only states and the census read a valuation map,
only polyring builds the component records of t^n - 1, and every cache is
bounded."""

import ast
from pathlib import Path

import ffdyn

SRC = Path(ffdyn.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")}
ALLOWED = {("polyring", "_order_prime_power")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _crossings(path: Path):
    """(module, private name) for each import or attribute use of another
    ffdyn module's private name in the source file path."""
    tree = ast.parse(path.read_text(), str(path))
    aliases = {}  # local name -> ffdyn module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").startswith("ffdyn."):
                module = node.module[len("ffdyn."):]
            elif node.module == "ffdyn":
                module = None
            else:
                continue
            for alias in node.names:
                if module is None:  # from . import x: x is a module
                    if alias.name in MODULES:
                        aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ffdyn.") and alias.asname:
                    aliases[alias.asname] = alias.name[len("ffdyn."):]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            yield aliases[node.value.id], node.attr


def test_no_private_names_cross_modules():
    found = {(path.name, module, name)
             for path in sorted(SRC.glob("*.py"))
             for module, name in _crossings(path)
             if module != path.stem and (module, name) not in ALLOWED}
    assert not found


def test_the_checker_sees_both_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .polyring import _KroneckerModulus, kernel\n"
                   "from . import seqgen\n"
                   "x = seqgen._hidden\n")
    assert set(_crossings(src)) == {("polyring", "_KroneckerModulus"), ("seqgen", "_hidden")}


# the calls that lay digits out in bytes; ffield's codec owns them
PACKING = {"from_bytes", "to_bytes", "maketrans"}


def _packing(path: Path):
    """'array' for each import of the array module and the attribute name for
    each use of int.from_bytes, .to_bytes or bytes.maketrans in path."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name == "array")
        elif isinstance(node, ast.ImportFrom) and node.module == "array" and not node.level:
            yield "array"
        elif isinstance(node, ast.Attribute) and node.attr in PACKING:
            yield node.attr


def test_only_ffield_lays_out_digits():
    found = {(path.name, use)
             for path in sorted(SRC.glob("*.py")) if path.stem != "ffield"
             for use in _packing(path)}
    assert not found


def test_the_packing_checker_sees_both_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import array\n"
                   "from array import array as slots\n"
                   "x = int.from_bytes(y.to_bytes(2, 'little'), 'little')\n"
                   "t = bytes.maketrans(b'0', b'1')\n")
    assert sorted(_packing(src)) == ["array", "array", "from_bytes", "maketrans", "to_bytes"]


def _iterates_bin(node) -> bool:
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "bin"


def _halvings(path: Path):
    """(top-level definition, use) for each `>>=` ('>>=') and each loop or
    comprehension over bin(...) ('bin') in the source file path; the
    definition is None at module level."""
    tree = ast.parse(path.read_text(), str(path))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift):
                yield owner, ">>="
            elif isinstance(node, (ast.For, ast.comprehension)) and _iterates_bin(node.iter):
                yield owner, "bin"


def test_one_square_and_multiply_loop():
    found = [(path.stem, owner, use)
             for path in sorted(SRC.glob("*.py")) for owner, use in _halvings(path)]
    assert found == [("intfactor", "power", ">>=")]


def test_the_halving_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(k):\n"
                   "    while k:\n"
                   "        k >>= 1\n"
                   "class C:\n"
                   "    def g(self, k):\n"
                   "        for bit in bin(k)[3:]:\n"
                   "            pass\n"
                   "bits = [b for b in bin(5)]\n"
                   "y = int(bin(5)[2:], 4) >> 1\n")
    assert list(_halvings(src)) == [("f", ">>="), ("C", "bin"), (None, "bin")]


def _units(top):
    """(owner, definition) for each function of the top-level statement top:
    the function itself, or each method of a class, named Class.method."""
    if isinstance(top, ast.ClassDef):
        return [(f"{top.name}.{m.name}", m) for m in top.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(top.name, top)]
    return []


def _calls(unit, name: str) -> bool:
    """Whether unit calls name, as a bare name or as an attribute."""
    return any(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(unit))


def _ring_builders(path: Path):
    """(owner, use) for each definition of a method or function named
    cyclic_ring ('cyclic_ring'), each call of _Modulus ('_Modulus') and each
    class derived from it ('subclass') in path; the owner is the top-level
    definition, with the method name for code inside a class's method."""
    tree = ast.parse(path.read_text(), str(path))
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "_Modulus" for b in top.bases):
            yield top.name, "subclass"
        for owner, unit in _units(top):
            if unit.name == "cyclic_ring":
                yield owner, "cyclic_ring"
            if _calls(unit, "_Modulus"):
                yield owner, "_Modulus"


def test_one_slot_ring_mod_t_n_minus_1():
    """GF(2) keeps its XOR ring and every other field gets the one slot ring,
    _ListKernel.cyclic_ring, built once per (field, n); the only other
    residue rings are those mod a polynomial (_modulus, _PackedModulus)."""
    found = {(path.stem, owner, use)
             for path in sorted(SRC.glob("*.py")) for owner, use in _ring_builders(path)}
    assert found == {("polyring", "_GF2Kernel.cyclic_ring", "cyclic_ring"),
                     ("polyring", "_GF2Kernel.cyclic_ring", "_Modulus"),
                     ("polyring", "_ListKernel.cyclic_ring", "cyclic_ring"),
                     ("polyring", "_ListKernel.cyclic_ring", "_Modulus"),
                     ("polyring", "_modulus", "_Modulus"),
                     ("polyring", "_PackedModulus", "subclass")}
    from ffdyn import FieldSpec, polyring
    for q in (3, 4, 9, 27, 2**31 - 1):
        kern = polyring.kernel(FieldSpec.of_order(q))
        assert type(kern) is polyring._ListKernel
        assert kern.cyclic_ring(5) is kern.cyclic_ring(5)


def test_the_ring_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class K:\n"
                   "    def cyclic_ring(self, n):\n"
                   "        return _Modulus(1, None)\n"
                   "class R(_Modulus):\n"
                   "    pass\n"
                   "def ring(n):\n"
                   "    return [_Modulus(0, None)]\n")
    assert list(_ring_builders(src)) == [("K.cyclic_ring", "cyclic_ring"),
                                         ("K.cyclic_ring", "_Modulus"), ("R", "subclass"),
                                         ("ring", "_Modulus")]


# the ffield calls that size slots and lay digits out in them; in polyring
# only the one slot layout makes them
LAYOUT_CALLS = ("slot_bits", "digit_planes")


def _owned_calls(path: Path, names=LAYOUT_CALLS):
    """(owner, name) for each call of one of names in path: the owner is a
    function, Class.method, the class for code in a class body outside its
    methods, and None at module level."""
    tree = ast.parse(path.read_text(), str(path))
    for top in tree.body:
        units = _units(top)
        rest = [node for node in top.body if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef))] if isinstance(top, ast.ClassDef) else []
        for name in names:
            yield from ((owner, name) for owner, unit in units if _calls(unit, name))
            if not units and _calls(top, name):
                yield None, name
            if any(_calls(node, name) for node in rest):
                yield top.name, name


def test_one_slot_layout_in_polyring():
    """kern.mul, cyclic_ring and _PackedModulus all take their slots from
    _ListKernel.layout, so no second private packing can come back."""
    found = set(_owned_calls(SRC / "polyring.py"))
    assert found == {("_ListKernel.layout", name) for name in LAYOUT_CALLS}


def test_the_layout_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class K:\n"
                   "    W = slot_bits(9)\n"
                   "    def layout(self, n):\n"
                   "        return ffield.digit_planes(3, 1, n, 1, slot_bits(n))\n"
                   "def ring(n):\n"
                   "    return [slot_bits(k) for k in range(n)]\n"
                   "PLANES = digit_planes(3, 2, 4, 3, 8)\n")
    assert list(_owned_calls(src)) == [("K.layout", "slot_bits"), ("K", "slot_bits"),
                                       ("K.layout", "digit_planes"), ("ring", "slot_bits"),
                                       (None, "digit_planes")]


def test_only_states_and_the_census_read_the_valuation_map():
    """The map of (q, n) serves states (seq_valuations) and the census
    (_census_count); an operator is read per component by
    _order_prime_power, so no analysis of D builds a map."""
    found = {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _name in _owned_calls(path, ("valuation_map",))}
    assert found == {("groupalg", "seq_valuations"), ("complexity", "_census_count")}


def test_the_map_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def seq_valuations(f):\n"
                   "    return valuation_map(f.spec, f.n).read(f.value_encs)\n"
                   "class A:\n"
                   "    def __init__(self, D):\n"
                   "        self.vals = groupalg.valuation_map(D.spec, D.n).read(D.op)\n"
                   "MAP = valuation_map(F2, 3)\n"
                   "valuation_map = lru_cache(maxsize=64)(_ValuationMap)\n")
    assert list(_owned_calls(src, ("valuation_map",))) == [
        ("seq_valuations", "valuation_map"), ("A.__init__", "valuation_map"),
        (None, "valuation_map")]


# the public functions that return a FieldElem built from an encoding; the
# rest of src/ computes on encodings through FieldSpec's *_enc ops
ELEMENT_BUILDERS = {("polyring", "Poly.coeffs"), ("polyring", "Poly.lc"),
                    ("polyring", "Poly.__call__"), ("polyring", "resultant"),
                    ("groupalg", "CyclicSeq.values"), ("groupalg", "CyclicSeq.value")}


def _element_uses(path: Path):
    """(owner, use) for each function or method in path that calls
    FieldElem(...) ('FieldElem') or from_int ('from_int'), and (None, use)
    for such a call outside any function."""
    tree = ast.parse(path.read_text(), str(path))
    for top in tree.body:
        units = _units(top)
        for use in ("FieldElem", "from_int"):
            yield from ((owner, use) for owner, unit in units if _calls(unit, use))
            if not units and _calls(top, use):
                yield None, use


def test_field_elements_are_built_only_where_returned():
    found = {(path.stem, owner, use)
             for path in sorted(SRC.glob("*.py")) if path.stem != "ffield"
             for owner, use in _element_uses(path)}
    assert found == {(module, owner, "FieldElem") for module, owner in ELEMENT_BUILDERS}


def test_the_element_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class C:\n"
                   "    def value(self):\n"
                   "        return FieldElem(self.spec, 0)\n"
                   "def f(spec, vals):\n"
                   "    return [spec.from_int(v) for v in vals]\n"
                   "def g(spec):\n"
                   "    return ffield.FieldElem(spec, 1) ** 2\n"
                   "ONE = FieldElem(F2, 1)\n"
                   "TWO = F3.from_int(2)\n")
    assert list(_element_uses(src)) == [("C.value", "FieldElem"), ("f", "from_int"),
                                        ("g", "FieldElem"), (None, "FieldElem"),
                                        (None, "from_int")]


def _round_trips(path: Path):
    """(line, use) for each call in path that passes an expression's
    .coeff_encs to a pack ('pack') and each _poly(...) call with an
    unpack(...) in its arguments ('_poly'), sorted by line."""
    tree = ast.parse(path.read_text(), str(path))

    def name(node):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)

    def inside(call, test):
        return any(test(node) for arg in call.args for node in ast.walk(arg))

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if name(node) == "pack" and inside(
                node, lambda x: isinstance(x, ast.Attribute) and x.attr == "coeff_encs"):
            found.append((node.lineno, "pack"))
        if name(node) == "_poly" and inside(
                node, lambda x: isinstance(x, ast.Call) and name(x) == "unpack"):
            found.append((node.lineno, "_poly"))
    return sorted(found)


def test_a_poly_reaches_its_kernel_as_its_form():
    """A Poly holds its kernel's form, so no operation packs a Poly's
    coefficients for the kernel or reads a kernel result to build one."""
    found = {(path.name, line, use)
             for path in sorted(SRC.glob("*.py")) for line, use in _round_trips(path)}
    assert not found


def test_the_round_trip_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(kern, p, q):\n"
                   "    a = kern.pack(p.coeff_encs)\n"
                   "    b = pack(list((p * q).coeff_encs))\n"
                   "    return _poly(p.spec, kern.unpack(kern.mul(a, b)))\n"
                   "c = _poly(spec, unpack(x)[:2])\n"
                   "d = kern.pack(c) + len(p.coeff_encs)\n")
    assert _round_trips(src) == [(2, "pack"), (3, "pack"), (4, "_poly"), (5, "_poly")]


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _split_loops(path: Path):
    """The owner of each function or method in path with a loop that calls
    a kernel's gcd (.gcd on anything but the math module): the round loop
    of an equal-degree split."""
    tree = ast.parse(path.read_text(), str(path))

    def kernel_gcd(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "gcd" and getattr(node.func.value, "id", None) != "math")

    for top in tree.body:
        for owner, unit in _units(top):
            if any(isinstance(loop, LOOPS) and any(map(kernel_gcd, ast.walk(loop)))
                   for loop in ast.walk(unit)):
                yield owner


def test_one_equal_degree_split():
    """Cantor-Zassenhaus (factorize) and the fixed-subalgebra split
    (_cyclotomic_piece) both run polyring._split's rounds."""
    found = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _split_loops(path)]
    assert found == [("polyring", "_split")]


def test_the_split_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def _split(kern, f, rounds):\n"
                   "    for b in rounds:\n"
                   "        g = kern.gcd(f, b)\n"
                   "class K:\n"
                   "    def cz(self, f):\n"
                   "        while True:\n"
                   "            if kernel(self.spec).gcd(f, 1):\n"
                   "                break\n"
                   "def planted(kern, f, rounds):\n"
                   "    return [kern.gcd(f, b) for b in rounds]\n"
                   "def monic(kern, f):\n"
                   "    return kern.gcd(f, 0)\n"
                   "def rho(n, xs):\n"
                   "    for x in xs:\n"
                   "        g = math.gcd(n, x)\n")
    assert list(_split_loops(src)) == ["_split", "K.cz", "planted"]


def _component_builds(path: Path):
    """(owner, line) for each call of Component(...) in path, as a bare name
    or as an attribute; the owner is the function, Class.method, or None
    outside any function."""
    tree = ast.parse(path.read_text(), str(path))
    for top in tree.body:
        units = _units(top) or [(None, top)]
        for owner, unit in units:
            for node in ast.walk(unit):
                if isinstance(node, ast.Call) and "Component" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    yield owner, node.lineno


def test_only_polyring_builds_components():
    """crt_split, next to the cached Phi_m pieces, is the one place that
    works out what a component of t^n - 1 is."""
    found = {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _line in _component_builds(path)}
    assert found == {("polyring", "crt_split")}


def test_the_component_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def split(spec, n):\n"
                   "    return [Component(pi, 1, m, 1) for pi, m in pairs(spec, n)]\n"
                   "class A:\n"
                   "    def records(self):\n"
                   "        return polyring.Component(self.pi, 2, 1, 1)\n"
                   "ONE = Component(None, 1, 1, 1)\n"
                   "Component = namedtuple('Component', 'pi e m d')\n")
    assert list(_component_builds(src)) == [("split", 2), ("A.records", 5), (None, 6)]


CACHES = {"lru_cache", "cache"}


def _unbounded_caches(path: Path):
    """(line, use) for each functools cache in path without an integer
    maxsize: 'cache' for functools.cache, 'bare' for an lru_cache not
    called, and 'maxsize' for an lru_cache called with no maxsize, with
    maxsize=None or with one that is not an int literal."""
    tree = ast.parse(path.read_text(), str(path))
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}

    def cache(node):  # the functools name node refers to, or None
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools" and node.attr in CACHES):
            return node.attr
        return None

    called, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (kind := cache(node.func)):
            called.add(id(node.func))
            if kind == "cache":
                found.append((node.lineno, "cache"))
                continue
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                found.append((node.lineno, "maxsize"))
    for node in ast.walk(tree):
        if id(node) not in called and (kind := cache(node)):
            found.append((node.lineno, "cache" if kind == "cache" else "bare"))
    return sorted(found)


def test_caches_are_bounded():
    """Every lru_cache in src/ has an integer maxsize, so no cache keyed on
    (field, n), a piece or a residue grows with a sweep."""
    found = {(path.name, line, use)
             for path in sorted(SRC.glob("*.py")) for line, use in _unbounded_caches(path)}
    assert not found


def test_the_cache_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import functools\n"
                   "from functools import cache, lru_cache as memo\n"
                   "@memo\n"
                   "def a(x): pass\n"
                   "@functools.lru_cache(maxsize=None)\n"
                   "def b(x): pass\n"
                   "@cache\n"
                   "def c(x): pass\n"
                   "d = memo()(len)\n"
                   "e = functools.cache(len)\n"
                   "f = memo(maxsize=SIZE)(len)\n"
                   "@memo(maxsize=64)\n"
                   "def g(x): pass\n"
                   "h = functools.lru_cache(256)(len)\n"
                   "i = memo(maxsize=True)(len)\n")
    assert _unbounded_caches(src) == [(3, "bare"), (5, "maxsize"), (7, "cache"), (9, "maxsize"),
                                      (10, "cache"), (11, "maxsize"), (15, "maxsize")]
