"""Source hygiene checks on the package modules."""

import ast
from pathlib import Path

import weakhopf

PACKAGE = Path(weakhopf.__file__).parent
REPO = PACKAGE.parent.parent


def _dead_imports(tree):
    """Names a module imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py re-exports what it imports
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = {p.name: _dead_imports(ast.parse(p.read_text(encoding="utf-8"))) for p in modules}
    assert {name: names for name, names in dead.items() if names} == {}


def test_dead_import_detector_sees_one():
    tree = ast.parse("from os import path, sep\nimport json\nprint(sep)\n")
    assert _dead_imports(tree) == ["json", "path"]


def _defined(tree):
    """Names of the functions, methods and classes a module defines, dunder
    names aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _read(tree):
    """Names a module reads, as a variable or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_every_package_definition_is_read_somewhere():
    # a helper whose last caller is gone is dead code, whatever module it is in
    read = set()
    for folder in ("src", "tests", "bench"):
        for path in (REPO / folder).rglob("*.py"):
            read |= _read(ast.parse(path.read_text(encoding="utf-8")))
    orphans = {p.name: sorted(_defined(ast.parse(p.read_text(encoding="utf-8"))) - read)
               for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in orphans.items() if names} == {}


def _public_methods(tree, classes):
    """"Class.method" of each public method, property and class method that
    the named classes of the tree define."""
    return {"%s.%s" % (node.name, item.name) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")}


def _unread_methods(methods, trees):
    """The "Class.method" names of methods whose name no tree reads."""
    read = set().union(*map(_read, trees))
    return sorted(m for m in methods if m.split(".")[1] not in read)


def test_every_public_matrix_and_subspace_method_is_read_by_the_program():
    # a kernel method that only the tests call is surface the program does
    # not need: reads in src/ and bench/ count, reads in tests/ do not
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "bench") for path in sorted((REPO / folder).rglob("*.py"))]
    linalg = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    assert _unread_methods(_public_methods(linalg, ("Matrix", "SubspaceBasis")), trees) == []


def test_unread_method_detector_sees_them():
    tree = ast.parse("class Matrix:\n    def used(self): pass\n    def spare(self): pass\n"
                     "    @classmethod\n    def make(cls): pass\n"
                     "    @property\n    def view(self): pass\n"
                     "    def _private(self): pass\n"
                     "class Other:\n    def unused(self): pass\n")
    readers = [ast.parse("m.used()\nview = Matrix.make\nm.spare = 1\n")]
    assert _unread_methods(_public_methods(tree, ("Matrix",)), readers) == [
        "Matrix.spare", "Matrix.view"]


def test_orphan_detector_sees_one():
    tree = ast.parse("class A:\n    def used(self): pass\n    def left(self): pass\n"
                     "    def __eq__(self, o): pass\n"
                     "def helper(): pass\n"
                     "A().used(); helper()\n")
    assert sorted(_defined(tree) - _read(tree)) == ["left"]


DENSE_VIEWS = ("data",)


def _dense_view_reads(tree):
    """(line, attribute) of each read of a dense view (``Matrix.data``) as
    an attribute."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS
                  and isinstance(node.ctx, ast.Load))


def test_no_package_module_reads_a_dense_view():
    # the dense views are for outside readers; the package reads sparse rows
    reads = {p.name: _dense_view_reads(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_dense_view_detector_sees_them():
    tree = ast.parse("rows = m.data[0]\nm.data = 1\ndata = rows\nbasis.sparse_rows\n"
                     "n = m.data\n")
    assert _dense_view_reads(tree) == [(1, "data"), (5, "data")]


def _getattr_hooks(tree):
    """(line, class) of each ``__getattr__`` a class defines."""
    return sorted((item.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and item.name == "__getattr__")


def test_no_package_class_forwards_unknown_attributes():
    # a class says what it is by subclassing; a catch-all __getattr__ hides
    # its surface and sends copy and pickle into endless recursion
    hooks = {p.name: _getattr_hooks(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in hooks.items() if found} == {}


def test_getattr_detector_sees_them():
    tree = ast.parse("class A:\n    def __getattr__(self, name):\n        pass\n"
                     "def __getattr__(name):\n    pass\n"
                     "class B:\n    x = 1\n    class C:\n        def __getattr__(s, n): pass\n")
    assert _getattr_hooks(tree) == [(2, "A"), (9, "C")]


def _scoped(tree, hit):
    """(line, enclosing class and function names) of each node that hit
    accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif hit(child):
                found.append((child.lineno, ".".join(scope)))
            visit(child, inner)

    visit(tree, ())
    return found


def _callers(tree, name):
    """(line, enclosing class and function names) of each call of name, as
    a bare name or as an attribute."""
    return _scoped(tree, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def _attribute_readers(tree, name):
    """(line, enclosing class and function names) of each read of the
    attribute name, called or not."""
    return _scoped(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == name
                   and isinstance(node.ctx, ast.Load))


def _package_scopes(find, name):
    """{(module file, scope)} of what find finds for name in the package."""
    return {(p.name, scope)
            for p in sorted(PACKAGE.glob("*.py"))
            for _, scope in find(ast.parse(p.read_text(encoding="utf-8")), name)}


def test_tensor_actions_are_built_only_by_the_context_memo():
    # every action of a 2-tensor on M (x) N goes through BraidContext.action,
    # so that an algebra builds each one once
    callers = _package_scopes(_callers, "_componentwise_action")
    assert callers == {("modules.py", "BraidContext.action")}


def _category_memo_reads(tree):
    """(line, enclosing class and function names) of each call of `_once`
    and of each use of the memo's key "_category"."""
    return _scoped(tree, lambda node: (
        isinstance(node, ast.Call) and "_once" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)))
        or (isinstance(node, ast.Constant) and node.value == "_category"))


def test_only_modules_reads_the_category_memo():
    # the memo of an algebra's module category is read and written in
    # modules.py alone, so every key in it is one that modules.py builds
    readers = {p.name for p in sorted(PACKAGE.glob("*.py"))
               if _category_memo_reads(ast.parse(p.read_text(encoding="utf-8")))}
    assert readers == {"modules.py"}


def test_category_memo_detector_sees_them():
    tree = ast.parse('memo = H.__dict__["_category"]\n'
                     "def f(H):\n    return modules._once(H, key, build)\n"
                     "class C:\n    def m(self):\n        return self.H.__dict__.get('_category')\n"
                     "_categoryx = once(H, key, build)\n")
    assert _category_memo_reads(tree) == [(1, ""), (3, "f"), (6, "C.m")]


def test_caller_detector_sees_them():
    tree = ast.parse("def f():\n    return g(1)\n"
                     "class C:\n    def m(self):\n        return mod.g(h(2))\n"
                     "g(3)\nx = g\n")
    assert _callers(tree, "g") == [(2, "f"), (5, "C.m"), (6, "")]


def test_every_law_scans_all_basis_elements_only_behind_the_generator_decision():
    # the scan over every basis element is reached through _on_generators,
    # which decides a multiplicative law on the generating set first, so a
    # law cannot skip that decision unnoticed
    callers = _package_scopes(_callers, "_multiplicativity")
    assert callers == {("algebra.py", "_on_generators")}


def test_caller_detector_sees_a_scan_in_a_property_and_a_lambda():
    tree = ast.parse("def _on_generators(H, f):\n    return _multiplicativity(f, H.generators)\n"
                     "class B:\n    @property\n    def law(self):\n"
                     "        return (t for t in algebra._multiplicativity(g, rows))\n"
                     "scan = lambda f: _multiplicativity(f, ())\n")
    assert _callers(tree, "_multiplicativity") == [(2, "_on_generators"), (6, "B.law"), (7, "")]


def test_maps_are_restricted_to_a_subspace_only_through_its_pivot_rows():
    # every map into a carrier, H_t or the carrier's tensor square is
    # restricted by _restrict, as its rows at the pivots and one identity;
    # the coordinates of one vector at a time are left to the two
    # one-vector questions
    assert _package_scopes(_callers, "_restrict") == {
        ("modules.py", "ht_module"), ("transmute.py", "_present"),
        ("twisting.py", "_alpha_between.carrier_map")}
    assert _package_scopes(_attribute_readers, "coordinates") == {
        ("transmute.py", "BraidedHopfPresentation.unit_element_coords")}


def test_attribute_reader_detector_sees_them():
    tree = ast.parse("class B:\n    def contains(self, v):\n        return self.coordinates(v)\n"
                     "def present(carrier):\n    return scan(carrier.coordinates)\n"
                     "b.coordinates = None\ncoordinates = 1\n")
    assert _attribute_readers(tree, "coordinates") == [(3, "B.contains"), (5, "present")]


def _literal_identity(node):
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "identity"
            and getattr(node.func.value, "id", None) == "Matrix")


def _identity_names(body):
    """Names the body of a module, class or function binds to a call of
    `Matrix.identity`; the bodies of the functions and classes it defines
    aside."""
    names = set()
    for node in ast.iter_child_nodes(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign) and _literal_identity(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        names |= _identity_names(node)
    return names


def _kron_by_identity(tree):
    """(line, enclosing class and function names) of each call of `kron`
    with an argument that is a call of `Matrix.identity`, or a name bound to
    one in the same function or in one that encloses it."""
    found = []

    def visit(node, scope, bound):
        for child in ast.iter_child_nodes(node):
            inner, inner_bound = scope, bound
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner, inner_bound = scope + (child.name,), bound | _identity_names(child)
            elif (isinstance(child, ast.Call) and "kron" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None))
                  and any(_literal_identity(arg) or getattr(arg, "id", None) in bound
                          for arg in child.args)):
                found.append((child.lineno, ".".join(scope)))
            visit(child, inner, inner_bound)

    visit(tree, (), _identity_names(tree))
    return found


def test_no_package_module_whiskers_a_map_by_a_kronecker_product():
    # X (x) id and id (x) X are applied to the map beside them by
    # linalg._whiskered, which builds no Kronecker product
    found = {p.name: _kron_by_identity(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_whiskered_kron_detector_sees_them():
    tree = ast.parse("def f(a, n):\n    return kron(a, Matrix.identity(n)) * x\n"
                     "class C:\n    def m(self):\n"
                     "        return linalg.kron(Matrix.identity(2), self.a)\n"
                     "ident = Matrix.identity(3)\ny = kron(ident, a)\nz = kron(a, identity(3))\n"
                     "def g(n):\n    ident = Matrix.identity(n)\n"
                     "    def inner(a):\n        return kron(ident, a)\n"
                     "    return inner\n"
                     "def h(a, ident):\n    eye = a\n    return kron(eye, a)\n")
    assert _kron_by_identity(tree) == [(2, "f"), (5, "C.m"), (7, ""), (12, "g.inner")]


# (module file, scope) where a Kronecker product is built whole: the basis of
# a tensor square
KRON_KEPT = {("linalg.py", "SubspaceBasis.square")}


def _kron_outside_kept(tree, module):
    """(line, scope) of each call of `kron` in the tree of module that is not
    in a scope of KRON_KEPT."""
    return [(line, scope) for line, scope in _callers(tree, "kron")
            if (module, scope) not in KRON_KEPT]


def test_no_package_module_calls_kron_outside_the_kept_products():
    # a product (A (x) B) X is two whiskered products (`_whiskered`,
    # `linalg._squared`), and a vector u (x) u is an outer product
    found = {p.name: _kron_outside_kept(ast.parse(p.read_text(encoding="utf-8")), p.name)
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_kron_call_detector_sees_them():
    tree = ast.parse("from .linalg import kron\n"
                     "def kron_sum(a):\n    return _kron_sum(a) + kron(a, a)\n"
                     "class SubspaceBasis:\n    def square(self):\n        return kron(r, r)\n"
                     "    def other(self):\n        return linalg.kron(r, r)\n"
                     "def _present(e):\n    def inner():\n        return kron(e, e)\n"
                     "    return kron(e, e)\n")
    assert _kron_outside_kept(tree, "linalg.py") == [
        (3, "kron_sum"), (8, "SubspaceBasis.other"), (11, "_present.inner"), (12, "_present")]
    assert _kron_outside_kept(tree, "transmute.py") == [
        (3, "kron_sum"), (6, "SubspaceBasis.square"), (8, "SubspaceBasis.other"),
        (11, "_present.inner"), (12, "_present")]


def _exit_codes_by_hand(tree):
    """(line, scope) of each int literal a `_cmd_*` handler or `_failed_check`
    returns, and of each call in one that passes `render` an argument."""
    def hit(node):
        if isinstance(node, ast.Return):
            return isinstance(node.value, ast.Constant) and type(node.value.value) is int
        return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "render"
                and bool(node.args or node.keywords))

    return [(line, scope) for line, scope in _scoped(tree, hit)
            if scope.split(".")[0].startswith("_cmd_")
            or scope.split(".")[0] == "_failed_check"]


def test_every_command_takes_its_exit_code_from_the_recorded_checks():
    # `_Output.render` decides 0 or 1 from the reports it was given; exit 2
    # is `run`'s alone
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _exit_codes_by_hand(tree) == []


def test_exit_code_detector_sees_them():
    tree = ast.parse("def _cmd_a(args):\n    out.render(1)\n    return 1\n"
                     "def _cmd_b(args):\n    def inner():\n        return 0\n"
                     "    return out.render(code=0)\n"
                     "def _failed_check(args):\n    return out.render()\n"
                     "def run(argv):\n    return 2\n")
    assert _exit_codes_by_hand(tree) == [
        (2, "_cmd_a"), (3, "_cmd_a"), (6, "_cmd_b.inner"), (7, "_cmd_b")]


def _document_layout(tree):
    """(line, scope) of each ``kind: `` line and each join of lines by a
    newline."""
    def hit(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and node.value.startswith("kind: ")
        return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "join"
                and getattr(node.func.value, "value", None) == "\n")

    return _scoped(tree, hit)


def test_every_document_is_laid_out_by_one_writer():
    # the kind line, the field lines and the final newline of every document
    # come from _serialize_lines; the serializers hand it their fields
    tree = ast.parse((PACKAGE / "serialization.py").read_text(encoding="utf-8"))
    assert {scope for _, scope in _document_layout(tree)} == {"_serialize_lines"}


def test_document_layout_detector_sees_them():
    tree = ast.parse('def write(x):\n    lines = ["kind: module"]\n'
                     '    return "\\n".join(lines) + " ".join(x)\n'
                     'class R:\n    def read(self):\n        return self.key_line("kind")\n')
    assert _document_layout(tree) == [(2, "write"), (3, "write")]


def _divisions(tree):
    """(line, scope) of each true division, x / y or x /= y."""
    return _scoped(tree, lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.Div))


def test_the_one_division_of_the_package_is_linalg_div():
    # an integral entry is an int, and a / between two ints makes a float;
    # linalg._div divides exactly and writes the quotient as frac does
    found = _package_scopes(lambda tree, _: _divisions(tree), None)
    assert found == {("linalg.py", "_div")}


def test_division_detector_sees_them():
    tree = ast.parse("def f(x, y):\n    return x / y\n"
                     "def g(x):\n    x /= 2\n    return x // 2 + x % 2\n"
                     "class C:\n    def m(self, a):\n"
                     "        return [(a / 2) / 3 for _ in a]\n"
                     "path = 'a / b'\nq, r = divmod(7, 2)\n")
    assert _divisions(tree) == [(2, "f"), (4, "g"), (8, "C.m"), (8, "C.m")]
