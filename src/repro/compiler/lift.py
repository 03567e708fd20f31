"""Loop lifting: compile steady kernels into replayable block plans.

The dispatcher (:mod:`repro.compiler.dispatcher`) wants to skip the
generator machinery entirely for kernels whose *control flow* does not
depend on the values they read — the "steady" kernels that dominate the
paper's characterization sweeps.  This module provides the two halves
of that bet:

* **Purity analysis** (:func:`kernel_purity`): a conservative AST
  whitelist proving a kernel generator touches nothing outside its
  thread context, its (immutable) closure cells and module constants,
  and the interpreter's memory requests.  Only pure kernels may be
  memoized or lifted — an impure kernel could consult ambient state the
  cache key cannot see.
* **Block-generic symbolic capture** (:func:`capture_block_variant`):
  run one block of the kernel once with :class:`Sym` placeholders fed
  back for every value a read/atomic/collective would produce, and with
  ``blockIdx`` bound to the affine symbol ``b`` (:class:`BlockAffine`).
  Arithmetic on a ``Sym`` builds an expression tree; *using* one where a
  concrete value is required — a branch, an index, an ``int()``/
  ``bool()`` conversion — raises :class:`CaptureEscape`, proving the
  kernel is *not* steady, and the dispatcher falls back to the batched
  fast tier.  Integer arithmetic on ``b`` stays affine
  (``base + coeff*b``); every concrete decision made on it (a
  comparison, a bounds check, a coalescing or address-collision count)
  is recorded as a guard predicate on ``b``, and a non-affine use
  (``//``, ``%``, ``int()``, ``range()``, hashing) pins the capture to
  its own block.  A capture that runs to completion yields a
  :class:`BlockPlan` *variant*: a static pass schedule — clocks, stats,
  step charges, and an ordered list of memory effects whose indices are
  ``(idx_base, idx_coeff)`` pairs — valid for every block its guard
  admits.  A launch grid is then served by a handful of variants (one
  per distinct control path), not one capture per block.

Capture runs the warp-pass loop and uniform-pass rules the fast tier
runs (:class:`repro.cuda.warppass.WarpPasses`), over a symbolic memory
backend.  A uniform pass therefore records the very effect the fast
tier applies (a gather via ``take``, duplicate-target writes in lane
order, an atomic group through the request table's applier
:func:`repro.cuda.requests.apply_atomics` in the mode it chooses),
priced by the same rule; a mixed-class pass records the reference pass
semantics of :meth:`repro.cuda.interpreter.Cuda._process_gathered`
(per-lane scalar effects, per-group costs, divergence penalties).
Plan execution is therefore byte-identical to the fast tier — which is
itself pinned byte-identical to the scalar reference by the
differential-fuzz harness.
"""

from __future__ import annotations

import ast
import builtins
import dis
import enum
import hashlib
import inspect
import marshal
import operator
import textwrap
import types
from dataclasses import fields as _dc_fields

import numpy as np

from repro.common.datatypes import DOUBLE, INT
from repro.common.errors import SimulationError
from repro.cuda import requests as rq
from repro.cuda.interpreter import (
    Cuda, LaunchStats, _LaneState, active_mask, start_block)
from repro.cuda.warppass import WarpPasses


class CaptureEscape(Exception):
    """Capture met behaviour it cannot prove steady (not an error)."""


# --------------------------------------------------------------------- #
# Symbolic values
# --------------------------------------------------------------------- #

_BINFN = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "//": operator.floordiv, "%": operator.mod,
    "**": operator.pow, "&": operator.and_, "|": operator.or_,
    "^": operator.xor, "<<": operator.lshift, ">>": operator.rshift,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_MINMAX = {"max": max, "min": min}
_CMP_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))
_FLOAT_OPS = frozenset(("+", "-", "*", "//", "%"))


class Sym:
    """A placeholder for one lane's yet-unknown read/atomic result.

    Arithmetic builds an expression tree (evaluated per lane with exact
    Python semantics at plan execution); any conversion that would let
    the value steer control flow or indexing raises
    :class:`CaptureEscape`.  ``kind`` tracks the Python type the value
    will have — ``"i"`` (int/bool), ``"f"`` (float), or ``None``
    (unknown) — for the cost rules that depend on it.
    """

    __slots__ = ("node", "kind")

    def __init__(self, node: tuple, kind: str | None = None) -> None:
        self.node = node
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sym({self.node!r})"


def _kind_of(v) -> str | None:
    t = type(v)
    if t is Sym:
        return v.kind
    if t is int or t is bool or t is BlockAffine:
        return "i"
    if t is float:
        return "f"
    return None


def _node_of(v) -> tuple:
    t = type(v)
    if t is Sym:
        return v.node
    if t is BlockAffine:
        return ("a", v.base, v.coeff)
    return ("k", v)


def _binop_kind(opname: str, ka, kb) -> str | None:
    if ka is None or kb is None:
        return None
    if opname in _CMP_OPS:
        return "i"
    if opname == "/":
        return "f"
    if ka == "f" or kb == "f":
        return "f" if opname in _FLOAT_OPS else None
    return None if opname == "**" else "i"


def _make_binop(opname: str):
    def fwd(self, other):
        return Sym(("b", opname, self.node, _node_of(other)),
                   _binop_kind(opname, self.kind, _kind_of(other)))

    def rev(self, other):
        return Sym(("b", opname, _node_of(other), self.node),
                   _binop_kind(opname, _kind_of(other), self.kind))

    return fwd, rev


for _op, (_fname, _rname) in {
        "+": ("__add__", "__radd__"), "-": ("__sub__", "__rsub__"),
        "*": ("__mul__", "__rmul__"), "/": ("__truediv__", "__rtruediv__"),
        "//": ("__floordiv__", "__rfloordiv__"),
        "%": ("__mod__", "__rmod__"), "**": ("__pow__", "__rpow__"),
        "&": ("__and__", "__rand__"), "|": ("__or__", "__ror__"),
        "^": ("__xor__", "__rxor__"),
        "<<": ("__lshift__", "__rlshift__"),
        ">>": ("__rshift__", "__rrshift__")}.items():
    _f, _r = _make_binop(_op)
    setattr(Sym, _fname, _f)
    setattr(Sym, _rname, _r)
for _op, _fname in {"==": "__eq__", "!=": "__ne__", "<": "__lt__",
                    "<=": "__le__", ">": "__gt__", ">=": "__ge__"}.items():
    setattr(Sym, _fname, _make_binop(_op)[0])


def _make_unop(opname: str):
    def un(self):
        kind = self.kind if opname != "invert" or self.kind == "i" \
            else None
        return Sym(("u", opname, self.node), kind)
    return un


Sym.__neg__ = _make_unop("neg")
Sym.__pos__ = _make_unop("pos")
Sym.__invert__ = _make_unop("invert")
Sym.__abs__ = _make_unop("abs")


def _make_escape(name: str):
    def escape(self, *args, **kwargs):
        raise CaptureEscape(f"data-dependent value used via {name}")
    return escape


for _name in ("__bool__", "__index__", "__int__", "__float__",
              "__complex__", "__iter__", "__len__", "__hash__",
              "__getitem__", "__setitem__", "__contains__", "__str__",
              "__format__", "__round__", "__trunc__", "__floor__",
              "__ceil__", "__bytes__", "__divmod__", "__rdivmod__",
              "__getattr__"):
    setattr(Sym, _name, _make_escape(_name))


def _fold_minmax(name: str, a, b) -> Sym:
    """``name(a, b)`` over at least one ``Sym``, as an expression node.

    Evaluated later with the builtin in the same argument order, so
    float ``-0.0``/NaN ordering matches ``max(a, b)`` exactly; folding
    ``max(a, b, c)`` as ``max(max(a, b), c)`` is the builtin's own
    left-to-right order.
    """
    ka, kb = _kind_of(a), _kind_of(b)
    return Sym(("m", name, _node_of(a), _node_of(b)),
               ka if ka == kb else None)


def _symbolic_minmax(name: str):
    builtin = _MINMAX[name]

    def minmax(*args, **kwargs):
        items = args[0] if len(args) == 1 \
            and type(args[0]) in (list, tuple) else args
        if kwargs or len(items) < 2 \
                or not any(type(x) is Sym for x in items):
            return builtin(*args, **kwargs)
        acc = items[0]
        for x in items[1:]:
            acc = _fold_minmax(name, acc, x)
        return acc

    minmax.__name__ = name
    return minmax


_SYMBOLIC_BUILTINS = {name: _symbolic_minmax(name) for name in _MINMAX}


def _symbolic_clone(fn):
    """``fn`` with builtin ``max``/``min`` rebound to Sym-aware folds.

    Only names the code actually loads as globals *and* that resolve to
    the builtins are rebound (a module that shadows ``max`` keeps its
    own).  The clone shares code, defaults, and closure; only its
    globals mapping is a copy.
    """
    g = fn.__globals__
    loaded = _global_load_names(fn.__code__)
    bmod = g.get("__builtins__", builtins)
    bdict = bmod if isinstance(bmod, dict) else vars(bmod)
    rebind = {name: f for name, f in _SYMBOLIC_BUILTINS.items()
              if name in loaded and name not in g
              and bdict.get(name) is _MINMAX[name]}
    if not rebind:
        return fn
    clone = types.FunctionType(fn.__code__, {**g, **rebind}, fn.__name__,
                               fn.__defaults__, fn.__closure__)
    clone.__kwdefaults__ = fn.__kwdefaults__
    return clone


_UNARY_SRC = {"neg": "-{}", "pos": "+{}", "invert": "~{}",
              "abs": "abs({})"}


def _compile_values(nodes: tuple):
    """Compile one pass's per-lane value expressions to Python code.

    Returns ``f(env, b) -> list`` evaluating every node once (a subtree
    shared between lanes is computed once), in the order a depth-first
    walk of the lanes first needs it, with the very operators the
    kernel applied (``a + b`` is ``operator.add(a, b)``) — so values
    match the stepped tiers' per-lane Python arithmetic exactly, and
    no Python call is paid per node.  Constants (and affine
    coefficients) are passed by reference, never re-parsed from their
    ``repr``.
    """
    consts: list = []
    lines: list[str] = []
    names: dict[int, str] = {}

    def const(value) -> str:
        consts.append(value)
        return f"K[{len(consts) - 1}]"

    def ref(node) -> str:
        tag = node[0]
        if tag == "k":
            return const(node[1])
        if tag == "s":
            return f"env[{node[1]}][{node[2]}]"
        if tag == "a":
            return f"({const(node[1])} + {const(node[2])} * b)"
        name = names.get(id(node))
        if name is None:
            if tag == "b":
                code = f"{ref(node[2])} {node[1]} {ref(node[3])}"
            elif tag == "m":
                code = f"{node[1]}({ref(node[2])}, {ref(node[3])})"
            else:
                code = _UNARY_SRC[node[1]].format(ref(node[2]))
            name = f"v{len(names)}"
            lines.append(f"    {name} = {code}\n")
            names[id(node)] = name
        return name

    outs = ", ".join(ref(node) for node in nodes)
    source = "def values(env, b):\n" + "".join(lines) \
        + f"    return [{outs}]\n"
    scope = {"K": consts, "max": max, "min": min, "abs": abs}
    exec(compile(source, "<block plan values>", "exec"), scope)
    return scope["values"]


class _LaneValues:
    """One pass's per-lane value expressions, compiled on first use."""

    __slots__ = ("nodes", "fn")

    def __init__(self, nodes: tuple) -> None:
        self.nodes = nodes
        self.fn = None

    def __call__(self, env: list, b: int) -> list:
        if self.fn is None:
            self.fn = _compile_values(self.nodes)
        return self.fn(env, b)


#: Ceilings on one pass's value expressions: distinct nodes (plan
#: memory, compile and evaluation time) and depth (compilation recurses
#: once per level).
_DAG_SIZE_CAP = 1 << 16
_DAG_DEPTH_CAP = 200


def _check_dag(nodes: tuple) -> None:
    """Enforce the ceilings (escaping capture when one is exceeded)."""
    heights: dict[int, int] = {}

    def height(node, depth: int) -> int:
        got = heights.get(id(node))
        if got is None:
            if depth > _DAG_DEPTH_CAP:
                raise CaptureEscape("value expression too deep")
            tag = node[0]
            if tag == "b" or tag == "m":
                got = 1 + max(height(node[2], depth + 1),
                              height(node[3], depth + 1))
            elif tag == "u":
                got = 1 + height(node[2], depth + 1)
            else:
                got = 1
            heights[id(node)] = got
            if len(heights) > _DAG_SIZE_CAP:
                raise CaptureEscape("value expression too large")
        elif depth + got > _DAG_DEPTH_CAP:
            raise CaptureEscape("value expression too deep")
        return got

    for node in nodes:
        height(node, 0)


def _value_spec(values: list):
    """Encode one pass's per-lane values: a list when all are constant,
    else a :class:`_LaneValues`."""
    if any(type(v) is Sym or type(v) is BlockAffine for v in values):
        nodes = tuple(_node_of(v) for v in values)
        _check_dag(nodes)
        return _LaneValues(nodes)
    return list(values)


def _eval_spec(spec, env: list, b: int) -> list:
    return spec if type(spec) is list else spec(env, b)


# --------------------------------------------------------------------- #
# The symbolic block index
# --------------------------------------------------------------------- #

#: ``(comparison, outcome) -> (sign, offset)``: with ``d = x - y`` the
#: outcome holds iff ``sign*d + offset >= 0`` (exact for integers).
_CMP_AS_NONNEG = {
    ("<", True): (-1, -1), ("<", False): (1, 0),
    ("<=", True): (-1, 0), ("<=", False): (1, -1),
    (">", True): (1, -1), (">", False): (-1, 0),
    (">=", True): (1, 0), (">=", False): (-1, -1),
}


class BlockGuard:
    """The blocks a capture's decisions hold for.

    The capture runs at one concrete block ``b0``; every decision taken
    on the symbolic block index narrows the admitted set to an interval
    ``lo <= b <= hi`` minus a set of excluded points.  :meth:`pin`
    collapses it to ``b0`` alone (the block-specific case).
    """

    __slots__ = ("b0", "lo", "hi", "excluded")

    def __init__(self, b0: int, n_blocks: int) -> None:
        self.b0 = b0
        self.lo = 0
        self.hi = n_blocks - 1
        self.excluded: set[int] = set()

    def pin(self) -> None:
        """Admit only the capture block."""
        self.lo = self.hi = self.b0

    def nonneg(self, coeff: int, base: int) -> None:
        """Require ``coeff*b + base >= 0`` (true at ``b0``)."""
        if coeff > 0:
            self.lo = max(self.lo, -(base // coeff))
        elif coeff < 0:
            self.hi = min(self.hi, base // -coeff)

    def compare(self, coeff: int, base: int, op: str,
                outcome: bool) -> None:
        """Record that ``(coeff*b + base) <op> 0`` gave ``outcome``."""
        if not coeff:
            return
        form = _CMP_AS_NONNEG.get((op, outcome))
        if form is not None:
            sign, offset = form
            self.nonneg(sign * coeff, sign * base + offset)
        elif (op == "==") == outcome:
            self.pin()  # b equals the unique root, b0
        elif base % coeff == 0:
            self.excluded.add(-base // coeff)


class BlockAffine:
    """An exact integer ``base + coeff*b`` in the symbolic block index.

    ``+``, ``-``, unary ``-``/``~`` and ``*`` by an int stay affine;
    comparisons (and truth tests) return the concrete outcome at the
    capture block and record it on the shared :class:`BlockGuard`.
    Every other use — ``//``, ``%``, non-int operands, ``int()``,
    ``range()``, hashing, formatting — returns the concrete value and
    pins the guard to the capture block.
    """

    __slots__ = ("base", "coeff", "guard")
    __array_ufunc__ = None  # numpy scalars defer to our reflected ops

    def __init__(self, base: int, coeff: int, guard: BlockGuard) -> None:
        self.base = base
        self.coeff = coeff
        self.guard = guard

    def concrete(self) -> int:
        """The value at the capture block (pins the guard if it varies)."""
        if self.coeff:
            self.guard.pin()
        return self.base + self.coeff * self.guard.b0

    def _linear(self, other):
        t = type(other)
        if t is BlockAffine:
            return other.base, other.coeff
        if t is int:
            return other, 0
        return None

    def _concrete_other(self, other):
        return other.concrete() if type(other) is BlockAffine else other

    def __add__(self, other):
        lin = self._linear(other)
        if lin is None:
            if type(other) is Sym:
                return NotImplemented
            return self.concrete() + other
        return BlockAffine(self.base + lin[0], self.coeff + lin[1],
                           self.guard)

    def __radd__(self, other):
        if self._linear(other) is None:
            if type(other) is Sym:
                return NotImplemented
            return other + self.concrete()
        return self.__add__(other)

    def __sub__(self, other):
        lin = self._linear(other)
        if lin is None:
            if type(other) is Sym:
                return NotImplemented
            return self.concrete() - other
        return BlockAffine(self.base - lin[0], self.coeff - lin[1],
                           self.guard)

    def __rsub__(self, other):
        lin = self._linear(other)
        if lin is None:
            if type(other) is Sym:
                return NotImplemented
            return other - self.concrete()
        return BlockAffine(lin[0] - self.base, lin[1] - self.coeff,
                           self.guard)

    def __mul__(self, other):
        lin = self._linear(other)
        if lin is None:
            if type(other) is Sym:
                return NotImplemented
            return self.concrete() * other
        base, coeff = lin
        if not coeff:
            return BlockAffine(self.base * base, self.coeff * base,
                               self.guard)
        if not self.coeff:
            return BlockAffine(self.base * base, self.base * coeff,
                               self.guard)
        return self.concrete() * self._concrete_other(other)

    __rmul__ = __mul__

    def __neg__(self):
        return BlockAffine(-self.base, -self.coeff, self.guard)

    def __pos__(self):
        return self

    def __invert__(self):
        return BlockAffine(-self.base - 1, -self.coeff, self.guard)

    def _compare(self, other, op: str):
        lin = self._linear(other)
        if lin is None:
            if type(other) is Sym:
                return NotImplemented
            return _BINFN[op](self.concrete(), other)
        coeff = self.coeff - lin[1]
        base = self.base - lin[0]
        outcome = _BINFN[op](base + coeff * self.guard.b0, 0)
        self.guard.compare(coeff, base, op, outcome)
        return outcome

    def __eq__(self, other):
        return self._compare(other, "==")

    def __ne__(self, other):
        return self._compare(other, "!=")

    def __lt__(self, other):
        return self._compare(other, "<")

    def __le__(self, other):
        return self._compare(other, "<=")

    def __gt__(self, other):
        return self._compare(other, ">")

    def __ge__(self, other):
        return self._compare(other, ">=")

    def __bool__(self):
        return self._compare(0, "!=")

    def __hash__(self):
        return hash(self.concrete())

    def __index__(self):
        return self.concrete()

    __int__ = __index__

    def __float__(self):
        return float(self.concrete())

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.concrete(), name)



def _make_pinning(fn, reflected: bool):
    def op(self, *args):
        if reflected:
            return fn(args[0], self.concrete())
        return fn(self.concrete(), *(self._concrete_other(a)
                                     for a in args))
    return op


for _fname, _fn in {
        "truediv": operator.truediv, "floordiv": operator.floordiv,
        "mod": operator.mod, "pow": operator.pow, "and": operator.and_,
        "or": operator.or_, "xor": operator.xor,
        "lshift": operator.lshift, "rshift": operator.rshift,
        "divmod": divmod}.items():
    setattr(BlockAffine, f"__{_fname}__", _make_pinning(_fn, False))
    setattr(BlockAffine, f"__r{_fname}__", _make_pinning(_fn, True))
for _fname, _fn in {"abs": abs, "round": round, "trunc": int,
                    "floor": int, "ceil": int, "complex": complex,
                    "str": str, "repr": repr, "format": format}.items():
    setattr(BlockAffine, f"__{_fname}__", _make_pinning(_fn, False))


# --------------------------------------------------------------------- #
# Purity analysis
# --------------------------------------------------------------------- #

#: Builtins a pure kernel may call: all value-level, effect-free.
PURE_BUILTINS = frozenset({
    "range", "len", "min", "max", "abs", "int", "float", "bool", "round",
    "sum", "any", "all", "enumerate", "zip", "sorted", "reversed",
    "divmod", "tuple", "list", "set", "dict", "frozenset", "str", "repr",
    "pow", "True", "False", "None",
})

_ALLOWED_STMTS = (
    ast.Return, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.For,
    ast.While, ast.If, ast.Expr, ast.Pass, ast.Break, ast.Continue,
)
_ALLOWED_EXPRS = (
    ast.BoolOp, ast.NamedExpr, ast.BinOp, ast.UnaryOp, ast.Lambda,
    ast.IfExp, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
    ast.GeneratorExp, ast.Yield, ast.YieldFrom, ast.Compare, ast.Call,
    ast.FormattedValue, ast.JoinedStr, ast.Constant, ast.Attribute,
    ast.Subscript, ast.Starred, ast.Name, ast.List, ast.Tuple, ast.Slice,
)
_ALLOWED_MISC = (
    ast.Load, ast.Store, ast.comprehension, ast.arguments, ast.arg,
    ast.keyword, ast.expr_context, ast.boolop, ast.operator,
    ast.unaryop, ast.cmpop, ast.withitem,
)

_purity_cache: dict = {}


def _collect_bound_names(tree: ast.AST) -> set[str]:
    """Every name the function itself binds (stores, args, targets)."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Lambda, ast.FunctionDef)):
            args = node.args
            for a in (args.posonlyargs + args.args + args.kwonlyargs):
                bound.add(a.arg)
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
    return bound


def _annotation_nodes(func: ast.FunctionDef) -> set[int]:
    """ids of every node inside an annotation.

    Parameter, return, and local-variable annotations are never
    evaluated while the generator steps, so names they mention (e.g.
    ``t: KernelThread``) are not behaviour the kernel can observe.
    """
    roots = [] if func.returns is None else [func.returns]
    for node in ast.walk(func):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _analyze(fn) -> tuple[bool, str, tuple[str, ...]]:
    """Static half of the purity proof: (ok, reason, global names)."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return False, "source unavailable", ()
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        return False, "not a plain function definition", ()
    func = tree.body[0]
    if func.decorator_list:
        return False, "decorated function", ()
    if not (func.args.posonlyargs + func.args.args):
        return False, "no context parameter", ()
    ctx_param = (func.args.posonlyargs + func.args.args)[0].arg

    code = fn.__code__
    local_names = (_collect_bound_names(func) | set(code.co_varnames)
                   | set(code.co_freevars) | set(code.co_cellvars))
    skip = _annotation_nodes(func)
    global_names: set[str] = set()

    for node in ast.walk(func):
        if node is func or id(node) in skip:
            continue
        if isinstance(node, ast.Attribute):
            if not (isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == ctx_param):
                return False, (f"attribute access outside the context "
                               f"parameter at line {node.lineno}"), ()
        elif isinstance(node, ast.Name):
            if node.id not in local_names:
                global_names.add(node.id)
        elif isinstance(node, ast.Compare):
            for op in node.ops:
                if isinstance(op, (ast.Is, ast.IsNot)):
                    return False, "identity comparison", ()
        elif isinstance(node, (_ALLOWED_STMTS + _ALLOWED_EXPRS
                               + _ALLOWED_MISC)):
            continue
        elif not isinstance(node, (ast.Index, ast.ExtSlice)
                            if hasattr(ast, "Index") else ()):
            return False, f"disallowed construct {type(node).__name__}", ()
    return True, "", tuple(sorted(global_names))


def kernel_purity(fn) -> tuple[bool, str]:
    """Prove (conservatively) that ``fn`` is a pure kernel generator.

    Pure means: the only names reachable are the context parameter,
    locally bound names, closure cells, module globals currently bound
    to deeply immutable values (:func:`immutable_value` — the dispatch
    keys freeze them, so rebinding one re-keys the kernel), and a
    whitelist of effect-free builtins; the only attribute accesses (and
    method calls) are on the context parameter; no imports,
    try/except, global/nonlocal, nested ``def``, or identity
    comparisons.  Annotations are ignored: they never run while the
    generator steps.  The static walk is cached per code object; the
    global values are re-checked on every call.
    """
    code = fn.__code__
    cached = _purity_cache.get(code)
    if cached is None:
        cached = _analyze(fn)
        _purity_cache[code] = cached
    ok, reason, global_names = cached
    if not ok:
        return False, reason
    g = fn.__globals__
    for name in global_names:
        if name in g:
            if not immutable_value(g[name]):
                return False, (f"global name {name!r} bound to a mutable "
                               f"{type(g[name]).__name__}")
        elif name not in PURE_BUILTINS:
            return False, f"global name {name!r} referenced"
    return True, ""


_IMMUTABLE_SCALARS = (bool, int, float, complex, str, bytes, type(None))


def immutable_value(v, depth: int = 0) -> bool:
    """True when ``v`` is deeply immutable (safe as a closure cell of a
    memoized kernel: the kernel cannot mutate it between launches)."""
    if depth > 4:
        return False
    if isinstance(v, _IMMUTABLE_SCALARS) or isinstance(v, enum.Enum):
        return True
    if isinstance(v, (np.integer, np.floating, np.bool_)) \
            or isinstance(v, np.dtype):
        return True
    if isinstance(v, (tuple, frozenset)):
        return all(immutable_value(x, depth + 1) for x in v)
    return False


# --------------------------------------------------------------------- #
# Module-global signatures
# --------------------------------------------------------------------- #

_global_loads_cache: dict = {}
_code_digests: dict = {}


def code_digest(code) -> bytes:
    """Stable 16-byte digest of a code object (memoized)."""
    d = _code_digests.get(code)
    if d is None:
        d = hashlib.blake2b(marshal.dumps(code), digest_size=16).digest()
        _code_digests[code] = d
    return d


def _global_load_names(code) -> frozenset[str]:
    """Names the code object (and nested codes) loads as globals."""
    names = _global_loads_cache.get(code)
    if names is None:
        out: set[str] = set()
        stack = [code]
        while stack:
            c = stack.pop()
            for ins in dis.get_instructions(c):
                if ins.opname == "LOAD_GLOBAL":
                    out.add(ins.argval)
            for const in c.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
        names = frozenset(out)
        _global_loads_cache[code] = names
    return names


def _freeze_global_value(v, depth: int = 0, seen=None):
    """Stable value tree of one global a kernel may observe.

    Raises:
        CaptureEscape: the value cannot be compared across launches
            (exotic/mutable-opaque type) — the launch must not be keyed.
    """
    if depth > 4:
        raise CaptureEscape("global value nesting too deep")
    if v is None or isinstance(v, (bool, int, float, complex, str, bytes)):
        return ("k", v)
    if isinstance(v, enum.Enum):
        return ("enum", type(v).__qualname__, v.name)
    if isinstance(v, (np.integer, np.floating, np.bool_)):
        return ("np", v.dtype.str, v.item())
    if isinstance(v, np.dtype):
        return ("dtype", v.str)
    if isinstance(v, (tuple, list)):
        return ("seq", tuple(_freeze_global_value(x, depth + 1, seen)
                             for x in v))
    if isinstance(v, (set, frozenset)):
        return ("set", tuple(sorted(
            (_freeze_global_value(x, depth + 1, seen) for x in v),
            key=repr)))
    if isinstance(v, dict):
        return ("map", tuple(sorted(
            ((k, _freeze_global_value(x, depth + 1, seen))
             for k, x in v.items()), key=repr)))
    if isinstance(v, np.ndarray):
        return ("nd", v.dtype.str, v.shape,
                hashlib.blake2b(v.tobytes(), digest_size=16).digest())
    if isinstance(v, types.FunctionType):
        if seen is None:
            seen = set()
        if id(v) in seen:
            return ("fn-cycle",)
        seen.add(id(v))
        try:
            cells = tuple(
                _freeze_global_value(c.cell_contents, depth + 1, seen)
                for c in (v.__closure__ or ()))
            defaults = tuple(_freeze_global_value(x, depth + 1, seen)
                             for x in (v.__defaults__ or ()))
        finally:
            seen.discard(id(v))
        return ("fn", code_digest(v.__code__), cells, defaults)
    raise CaptureEscape(f"unguardable global {type(v).__name__}")


def freeze_function_globals(fn) -> tuple:
    """Frozen (name, value) pairs for every module global ``fn`` loads.

    The kernel signature covers code, closure, and defaults, but a
    kernel also reads module globals — constants admitted by
    :func:`kernel_purity`, or anything at all under ``force`` mode —
    whose *values* decide what it computes and get baked into captured
    plans.  The dispatcher folds this signature into both the replay
    key and the shape key, so rebinding a global re-keys the launch:
    same shapes, semantically different behaviour never replays.

    Raises:
        CaptureEscape: a referenced global cannot be frozen.
    """
    g = fn.__globals__
    pairs = []
    for name in sorted(_global_load_names(fn.__code__)):
        if name in g:
            pairs.append((name, _freeze_global_value(g[name])))
    return tuple(pairs)


# --------------------------------------------------------------------- #
# Compiled block plans
# --------------------------------------------------------------------- #

class BlockPlan:
    """One captured pass schedule, valid for every block its guard admits.

    Effects address memory as ``idx_base + idx_coeff*b`` (``idx_coeff``
    is ``None`` when no lane's index depends on the block, an int when
    every lane shares it, else a per-lane array), and value expressions
    may reference ``b`` too, so one variant replays any admitted block.

    Attributes:
        cycles: The block's modeled runtime (static for steady kernels).
        steps: Interpreter step charges the block consumes.
        n_slots: Value-slot count for the effect environment.
        effects: Ordered memory effects (tuples; see the executor).
        stats: Nonzero ``LaunchStats`` field deltas as (name, delta).
        lo, hi, excluded: The guard — blocks ``lo <= b <= hi`` not in
            ``excluded``.
    """

    __slots__ = ("cycles", "steps", "n_slots", "effects", "stats", "lo",
                 "hi", "excluded")

    def __init__(self, cycles: float, steps: int, n_slots: int,
                 effects: list, stats: tuple, lo: int, hi: int,
                 excluded: frozenset) -> None:
        self.cycles = cycles
        self.steps = steps
        self.n_slots = n_slots
        self.effects = effects
        self.stats = stats
        self.lo = lo
        self.hi = hi
        self.excluded = excluded

    def covers(self, b: int) -> bool:
        """True when this variant's guard admits block ``b``."""
        return self.lo <= b <= self.hi and b not in self.excluded

    def execute(self, memory: dict[str, np.ndarray],
                shared_decls: dict[str, tuple[int, np.dtype]],
                stats, b: int) -> float:
        """Replay the recorded effects for block ``b`` against memory.

        Mirrors the stepped tiers' numpy operation sequence exactly, so
        the resulting bytes match a generator-stepped execution.
        """
        shared = {name: np.zeros(size, dtype=dt)
                  for name, (size, dt) in shared_decls.items()}
        gflats: dict[str, np.ndarray] = {}
        sflats: dict[str, np.ndarray] = {}
        env: list = [None] * self.n_slots

        def flat_of(in_shared: bool, var: str) -> np.ndarray:
            flats = sflats if in_shared else gflats
            flat = flats.get(var)
            if flat is None:
                flat = (shared[var] if in_shared
                        else memory[var]).reshape(-1)
                flats[var] = flat
            return flat

        for eff in self.effects:
            tag = eff[0]
            if tag == "r":  # read (global or shared)
                _, in_shared, var, base, coeff, slot = eff
                idx = base if coeff is None else base + coeff * b
                env[slot] = flat_of(in_shared, var).take(idx).tolist()
            elif tag == "w":  # write (global or shared)
                _, in_shared, var, base, coeff, vspec, distinct = eff
                idx = base if coeff is None else base + coeff * b
                flat = flat_of(in_shared, var)
                values = _eval_spec(vspec, env, b)
                if distinct:
                    np.put(flat, idx, values)
                else:
                    # Duplicate targets (or a mixed pass's scalar
                    # stores): lane order decides the survivor.
                    for i, v in zip(idx.tolist(), values):
                        flat[i] = v
            else:  # "a": atomic group, via the request table's applier
                (_, cls, in_shared, var, base, coeff, slot, vspec, cspec,
                 mode) = eff
                env[slot] = rq.apply_atomics(
                    cls, flat_of(in_shared, var),
                    base if coeff is None else base + coeff * b,
                    _eval_spec(vspec, env, b),
                    None if cspec is None else _eval_spec(cspec, env, b),
                    mode)
        for name, delta in self.stats:
            setattr(stats, name, getattr(stats, name) + delta)
        return self.cycles


# --------------------------------------------------------------------- #
# Block-generic symbolic capture
# --------------------------------------------------------------------- #

#: Per-block effect ceiling: plans beyond this are not worth the memory.
EFFECT_CAP = 150_000

_READS = {rq.GlobalRead: False, rq.SharedRead: True}
_WRITES = {rq.GlobalWrite: False, rq.SharedWrite: True}


class _Capture(WarpPasses):
    """Capture's memory backend for the shared warp-pass code.

    A handle is ``(in_shared, var, dtype, bases, coeffs)``: each lane's
    index is ``base + coeff*b`` in the symbolic block index, guarded in
    bounds.  Counts taken over indices (sectors, distinct addresses) are
    taken at the capture block ``b0`` and pin the guard unless they are
    the same in every admitted block.  Effects are recorded for the
    plan, and every value a read or atomic produces is a :class:`Sym`.
    """

    def __init__(self, cuda, kernel, launch, ctx, block_idx: int,
                 mem_info, shared_decls, step_cap: int) -> None:
        self.cuda = cuda
        self.guard = BlockGuard(block_idx, launch.grid_blocks)
        self.b0 = block_idx
        self.mem_info = mem_info
        self.step_cap = step_cap
        self.steps = 0
        self.effects: list = []
        self.n_slots = 0
        shared_info = {name: (size, np.dtype(dt))
                       for name, (size, dt) in shared_decls.items()}
        warps = start_block(_symbolic_clone(kernel), launch,
                            BlockAffine(0, 1, self.guard))
        super().__init__(cuda.device, ctx, launch, warps, shared_info,
                         LaunchStats())

    # ------------------------- index handling ------------------------- #

    def declared(self, var, in_shared: bool):
        if type(var) is Sym or not isinstance(var, str):
            raise CaptureEscape("data-dependent variable name")
        entry = (self.shared if in_shared else self.mem_info).get(var)
        if entry is None:
            raise CaptureEscape(f"undeclared variable {var!r}")
        return entry

    def affine_indices(self, reqs, size: int):
        """Per-lane ``(base, coeff)`` index pairs, guarded in bounds."""
        guard, b0 = self.guard, self.b0
        bases, coeffs = [], []
        for r in reqs:
            idx = r.idx
            t = type(idx)
            if t is BlockAffine:
                base, coeff = idx.base, idx.coeff
            elif t is Sym:
                raise CaptureEscape("data-dependent memory index")
            elif isinstance(idx, (int, np.integer)):
                base, coeff = int(idx), 0
            else:
                raise CaptureEscape(f"non-integer index {t.__name__}")
            if not 0 <= base + coeff * b0 < size:
                raise CaptureEscape("out-of-bounds access")
            guard.nonneg(coeff, base)
            guard.nonneg(-coeff, size - 1 - base)
            bases.append(base)
            coeffs.append(coeff)
        return bases, coeffs

    def lane_invariant(self, coeffs, itemsize: int = 0) -> None:
        """Pin unless a count over these indices is the same in every
        admitted block: a shared coefficient keeps address collisions
        fixed, and one moving whole 32-byte sectors keeps the coalescing
        count fixed too (``itemsize`` > 0)."""
        c0 = coeffs[0]
        if any(c != c0 for c in coeffs) or (c0 * itemsize) % 32:
            self.guard.pin()

    def sector_count(self, entries) -> int:
        """Distinct (var, sector) pairs over ``(var, base, coeff,
        itemsize)`` entries — the reference coalescing rule."""
        by_var: dict[str, list] = {}
        for var, _, coeff, itemsize in entries:
            by_var.setdefault(var, [itemsize]).append(coeff)
        for itemsize, *coeffs in by_var.values():
            self.lane_invariant(coeffs, itemsize)
        b0 = self.b0
        return len({(var, (base + coeff * b0) * itemsize // 32)
                    for var, base, coeff, itemsize in entries})

    def new_slot(self, glanes, dtype) -> int:
        """A value slot for one effect's per-lane results, bound to the
        lanes as :class:`Sym` placeholders."""
        slot = self.n_slots
        self.n_slots += 1
        kind = "f" if dtype.kind == "f" else \
            "i" if dtype.kind in "iub" else None
        for pos, lane in enumerate(glanes):
            lane.pending = Sym(("s", slot, pos), kind)
        return slot

    # ------------------------- backend hooks -------------------------- #

    def charge(self, n_steps: int) -> None:
        self.steps += n_steps
        if self.steps > self.step_cap:
            raise CaptureEscape("step budget reached in capture")
        if len(self.effects) > EFFECT_CAP:
            raise CaptureEscape("plan too large")

    def resolve(self, in_shared, reqs):
        var = reqs[0].var
        size, dtype = self.declared(var, in_shared)
        for r in reqs:
            if r.var != var:
                return None
        return (in_shared, var, dtype,
                *self.affine_indices(reqs, size))

    def n_sectors(self, handle) -> int:
        _, var, dtype, bases, coeffs = handle
        return self.sector_count([(var, base, c, dtype.itemsize)
                                  for base, c in zip(bases, coeffs)])

    def n_addresses(self, handle) -> int:
        bases, coeffs = handle[3], handle[4]
        self.lane_invariant(coeffs)
        b0 = self.b0
        return len({base + c * b0 for base, c in zip(bases, coeffs)})

    def dtype(self, handle):
        return handle[2]

    def load(self, handle, glanes) -> None:
        in_shared, var, dtype, bases, coeffs = handle
        self.effects.append(("r", in_shared, var, *_encode(bases, coeffs),
                             self.new_slot(glanes, dtype)))

    def store(self, handle, reqs, distinct: bool) -> None:
        in_shared, var, _, bases, coeffs = handle
        self.effects.append(("w", in_shared, var, *_encode(bases, coeffs),
                             _value_spec([r.value for r in reqs]),
                             distinct))

    def atomics(self, cls, handle, glanes, reqs, mode: str) -> None:
        in_shared, var, dtype, bases, coeffs = handle
        vspec = _value_spec([r.value for r in reqs])
        cspec = _value_spec([r.compare for r in reqs]) \
            if cls is rq.AtomicCas else None
        self.effects.append(("a", cls, in_shared, var,
                             *_encode(bases, coeffs),
                             self.new_slot(glanes, dtype), vspec, cspec,
                             mode))

    def mixed(self, warp_id, lanes, glanes, reqs):
        """``Cuda._process_gathered`` on symbolic values: per-lane
        effects in lane order, per-group costs, the divergence charge."""
        group_costs: dict = {}
        atomic_groups: dict = {}
        sector_entries: dict = {}
        for lane, r in zip(glanes, reqs):
            if isinstance(r, rq.Syncthreads):
                lane.state = _LaneState.BARRIER
                lane.barrier_request = r
            elif isinstance(r, rq.Activemask):
                lane.pending = active_mask(lanes)
                group_costs[rq.Activemask] = max(
                    group_costs.get(rq.Activemask, 0.0), self.alu_cycles)
            elif isinstance(r, rq.WarpCollective):
                lane.state = _LaneState.COLLECTIVE
                lane.collective = r
            elif isinstance(r, rq.AtomicRmw):
                atomic_groups.setdefault((type(r), r.var, r.scope),
                                         []).append((lane, r))
            else:
                key = type(r)
                group_costs[key] = max(group_costs.get(key, 0.0),
                                       self._simple(lane, r,
                                                    sector_entries))
        for req_type, entries in sector_entries.items():
            group_costs[req_type] = self.global_cost(
                self.sector_count(entries))
        for key, group in atomic_groups.items():
            group_costs[key] = self.atomic_group(
                warp_id, [lane for lane, _ in group],
                [r for _, r in group], serial=True)
        cost = sum(group_costs.values())
        if len(group_costs) > 1:
            self.stats.divergent_passes += 1
            cost += self.params.divergence_cycles * (len(group_costs) - 1)
        return cost, []

    def _simple(self, lane, r, sector_entries) -> float:
        """One lane's non-atomic request, as ``Cuda._execute_simple``."""
        cls = r.__class__
        stats = self.stats
        if cls is rq.Alu:
            return self.alu_cycles * r.n
        if cls is rq.Syncwarp:
            stats.syncwarps += 1
            return self.prices.op(r.kind)
        if cls is rq.Threadfence:
            stats.fences += 1
            return self.prices.op(r.kind)
        is_read = cls in _READS
        if not is_read and cls not in _WRITES:
            raise CaptureEscape(f"unsupported request {cls.__name__} in "
                                f"steady capture")
        in_shared = _READS[cls] if is_read else _WRITES[cls]
        handle = self.resolve(in_shared, [r])
        if is_read:
            self.load(handle, [lane])
        else:
            # A mixed pass stores lane by lane, in lane order.
            self.store(handle, [r], False)
        if not in_shared:
            _, var, dtype, bases, coeffs = handle
            sector_entries.setdefault(cls, []).append(
                (var, bases[0], coeffs[0], dtype.itemsize))
        return self._access(in_shared, handle, 1)

    def collective(self, lanes):
        """``Cuda._maybe_run_collective`` on symbolic values."""
        try:
            participants = Cuda._ready_collective(lanes)
        except SimulationError as exc:
            raise CaptureEscape(str(exc)) from None
        if participants is None:
            return None
        first = participants[0].collective
        cls = first.__class__
        self.stats.collectives += len(participants)
        if cls is rq.ReduceMaxSync and any(
                type(lane.collective.value) is Sym
                for lane in participants):
            result = first.value
            for lane in participants[1:]:
                result = _fold_minmax("max", result, lane.collective.value)
            for lane in participants:
                lane.pending = result
        else:
            Cuda._apply_collective(participants)
        value = getattr(first, "value", 0)
        if type(value) is Sym:
            if value.kind is None:
                raise CaptureEscape(
                    "collective over a value of unknown Python type")
            is_float = value.kind == "f"
        else:
            is_float = isinstance(value, float)
        cost = self.prices.op(cls.kind, DOUBLE if is_float else INT)
        for lane in participants:
            lane.state = _LaneState.RUNNING
            lane.collective = None
        return cost, cls.__name__

    def release(self) -> bool:
        try:
            return self.cuda._maybe_release_barrier(
                self.warps, self.warp_clocks, self.prices, self.stats)
        except SimulationError as exc:
            raise CaptureEscape(str(exc)) from None

    def deadlock(self) -> None:
        raise CaptureEscape("deadlock during capture")


def _encode(bases, coeffs):
    """An effect's ``(idx_base, idx_coeff)``: ``idx_coeff`` is None when
    no lane's index depends on the block, an int when every lane shares
    it, else a per-lane array."""
    c0 = coeffs[0]
    if all(c == c0 for c in coeffs):
        coeff = c0 or None
    else:
        coeff = np.array(coeffs, dtype=np.intp)
    return np.array(bases, dtype=np.intp), coeff


def capture_block_variant(cuda, kernel, launch, ctx, block_idx: int,
                          mem_info: dict[str, tuple[int, np.dtype]],
                          shared_decls: dict[str, tuple[int, np.dtype]],
                          step_cap: int) -> BlockPlan:
    """Dry-run block ``block_idx`` with symbolic values and a symbolic
    block index, and record the plan variant it proves.

    The returned plan's guard admits ``block_idx`` and every other block
    for which all decisions taken on the block index come out the same.

    Raises:
        CaptureEscape: when the kernel is not steady (control flow,
            indices, variants, or collectives depend on data), goes out
            of bounds, or exceeds ``step_cap``/:data:`EFFECT_CAP` — the
            caller falls back to the ordinary fast tier.
    """
    capture = _Capture(cuda, kernel, launch, ctx, block_idx, mem_info,
                       shared_decls, step_cap)
    cycles = capture.run()
    stats = capture.stats
    guard = capture.guard
    return BlockPlan(
        cycles=cycles,
        steps=capture.steps,
        n_slots=capture.n_slots,
        effects=capture.effects,
        stats=tuple((f.name, getattr(stats, f.name))
                    for f in _dc_fields(stats) if getattr(stats, f.name)),
        lo=guard.lo,
        hi=guard.hi,
        excluded=frozenset(guard.excluded),
    )
