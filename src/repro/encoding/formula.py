"""Hash-consed term IR for the SMT encoding.

Two sorts are supported:

* **Bool** -- guard conditions, ordering variables, comparisons;
* **BV(w)** -- fixed-width two's-complement bit-vectors for program values.

Terms are immutable and hash-consed: structurally equal terms are the same
object, so dictionaries keyed by term identity are safe and the bit-blaster
cache is effective.  Constructors perform light constant folding; they raise
:class:`SortError` on sort/width mismatches.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "SortError", "Term", "TRUE", "FALSE",
    "bool_var", "bool_const", "mk_not", "mk_and", "mk_or", "mk_xor",
    "implies", "iff", "ite",
    "bv_var", "bv_const", "bv_add", "bv_sub", "bv_mul", "bv_neg",
    "bv_and", "bv_or", "bv_xor", "bv_not", "bv_ite", "shl", "lshr",
    "eq", "ne", "ult", "ule", "slt", "sle",
    "evaluate",
]


class SortError(TypeError):
    """Raised when term constructors are applied to ill-sorted arguments."""


class Term:
    """An immutable, hash-consed term.

    Attributes:
        op: operator tag (e.g. ``"and"``, ``"bvadd"``, ``"eq"``).
        args: child terms.
        width: bit-width for BV-sorted terms, ``None`` for Bool.
        name: variable name for ``boolvar`` / ``bvvar``.
        value: Python value for ``boolconst`` / ``bvconst``.
    """

    __slots__ = ("op", "args", "width", "name", "value", "_hash", "__weakref__")

    #: Hash-cons table: key -> weak reference to the term.  Terms are held
    #: weakly, so a long-lived process keeps only the terms still in use;
    #: a term's death removes its entry (``_remove_dead_weakref``, the
    #: stdlib's own helper, deletes it only if it still holds a dead
    #: reference).  Keys name children by ``id()``:
    #: a live term keeps its children alive, so a live entry's ids are
    #: never reused by other objects.  (``weakref.WeakValueDictionary``
    #: does the same in Python code, which made SSA construction ~25%
    #: slower; this is a plain dict of C-level weak references.)
    _table: Dict[tuple, "weakref.ref"] = {}

    def __new__(
        cls,
        op: str,
        args: Tuple["Term", ...] = (),
        width: Optional[int] = None,
        name: Optional[str] = None,
        value=None,
    ) -> "Term":
        key = (op, tuple(map(id, args)), width, name, value)
        table = cls._table
        ref = table.get(key)
        if ref is not None:
            cached = ref()
            if cached is not None:
                return cached
        self = object.__new__(cls)
        self.op = op
        self.args = tuple(args)
        self.width = width
        self.name = name
        self.value = value
        self._hash = hash(key)
        # Defaults bind the helper: module globals are gone at shutdown.
        table[key] = weakref.ref(
            self, lambda _, key=key, drop=_remove_dead_weakref: drop(table, key)
        )
        return self

    @property
    def is_bool(self) -> bool:
        return self.width is None

    @property
    def is_bv(self) -> bool:
        return self.width is not None

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.op in ("boolvar", "bvvar"):
            return f"{self.name}"
        if self.op == "boolconst":
            return "true" if self.value else "false"
        if self.op == "bvconst":
            return f"{self.value}#{self.width}"
        return f"({self.op} {' '.join(map(repr, self.args))})"


TRUE = Term("boolconst", value=True)
FALSE = Term("boolconst", value=False)


def _require_bool(*terms: Term) -> None:
    for t in terms:
        if not t.is_bool:
            raise SortError(f"expected Bool term, got {t!r}")


def _require_bv_same(*terms: Term) -> int:
    widths = {t.width for t in terms}
    if None in widths or len(widths) != 1:
        raise SortError(f"expected BV terms of equal width, got {terms!r}")
    return terms[0].width  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Boolean constructors
# ----------------------------------------------------------------------

def bool_var(name: str) -> Term:
    return Term("boolvar", name=name)


def bool_const(value: bool) -> Term:
    return TRUE if value else FALSE


def mk_not(a: Term) -> Term:
    _require_bool(a)
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == "not":
        return a.args[0]
    return Term("not", (a,))


def mk_and(*args: Term) -> Term:
    flat = []
    for a in args:
        _require_bool(a)
        if a is FALSE:
            return FALSE
        if a is TRUE:
            continue
        if a.op == "and":
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return Term("and", tuple(flat))


def mk_or(*args: Term) -> Term:
    flat = []
    for a in args:
        _require_bool(a)
        if a is TRUE:
            return TRUE
        if a is FALSE:
            continue
        if a.op == "or":
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Term("or", tuple(flat))


def mk_xor(a: Term, b: Term) -> Term:
    _require_bool(a, b)
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE:
        return mk_not(b)
    if b is TRUE:
        return mk_not(a)
    if a is b:
        return FALSE
    return Term("xor", (a, b))


def implies(a: Term, b: Term) -> Term:
    return mk_or(mk_not(a), b)


def iff(a: Term, b: Term) -> Term:
    return mk_not(mk_xor(a, b))


def ite(c: Term, t: Term, e: Term) -> Term:
    """If-then-else over Bool branches (see :func:`bv_ite` for BV)."""
    _require_bool(c, t, e)
    if c is TRUE:
        return t
    if c is FALSE:
        return e
    if t is e:
        return t
    return Term("ite", (c, t, e))


# ----------------------------------------------------------------------
# Bit-vector constructors
# ----------------------------------------------------------------------

def _mask(width: int) -> int:
    return (1 << width) - 1


def bv_var(name: str, width: int) -> Term:
    if width <= 0:
        raise SortError("bit-vector width must be positive")
    return Term("bvvar", width=width, name=name)


def bv_const(value: int, width: int) -> Term:
    if width <= 0:
        raise SortError("bit-vector width must be positive")
    return Term("bvconst", width=width, value=value & _mask(width))


def _both_const(a: Term, b: Term) -> bool:
    return a.op == "bvconst" and b.op == "bvconst"


def bv_add(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    if _both_const(a, b):
        return bv_const(a.value + b.value, w)
    if a.op == "bvconst" and a.value == 0:
        return b
    if b.op == "bvconst" and b.value == 0:
        return a
    return Term("bvadd", (a, b), width=w)


def bv_sub(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    if _both_const(a, b):
        return bv_const(a.value - b.value, w)
    if b.op == "bvconst" and b.value == 0:
        return a
    if a is b:
        return bv_const(0, w)
    return Term("bvsub", (a, b), width=w)


def bv_mul(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    if _both_const(a, b):
        return bv_const(a.value * b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.op == "bvconst":
            if x.value == 0:
                return bv_const(0, w)
            if x.value == 1:
                return y
    return Term("bvmul", (a, b), width=w)


def bv_neg(a: Term) -> Term:
    if not a.is_bv:
        raise SortError(f"expected BV term, got {a!r}")
    if a.op == "bvconst":
        return bv_const(-a.value, a.width)
    return Term("bvneg", (a,), width=a.width)


def bv_and(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    if _both_const(a, b):
        return bv_const(a.value & b.value, w)
    return Term("bvand", (a, b), width=w)


def bv_or(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    if _both_const(a, b):
        return bv_const(a.value | b.value, w)
    return Term("bvor", (a, b), width=w)


def bv_xor(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    if _both_const(a, b):
        return bv_const(a.value ^ b.value, w)
    return Term("bvxor", (a, b), width=w)


def bv_not(a: Term) -> Term:
    if not a.is_bv:
        raise SortError(f"expected BV term, got {a!r}")
    if a.op == "bvconst":
        return bv_const(~a.value, a.width)
    return Term("bvnot", (a,), width=a.width)


def bv_ite(c: Term, t: Term, e: Term) -> Term:
    _require_bool(c)
    w = _require_bv_same(t, e)
    if c is TRUE:
        return t
    if c is FALSE:
        return e
    if t is e:
        return t
    return Term("bvite", (c, t, e), width=w)


def shl(a: Term, amount: int) -> Term:
    """Left shift by a constant amount."""
    if not a.is_bv:
        raise SortError(f"expected BV term, got {a!r}")
    if amount == 0:
        return a
    if a.op == "bvconst":
        return bv_const(a.value << amount, a.width)
    return Term("shl", (a,), width=a.width, value=amount)


def lshr(a: Term, amount: int) -> Term:
    """Logical right shift by a constant amount."""
    if not a.is_bv:
        raise SortError(f"expected BV term, got {a!r}")
    if amount == 0:
        return a
    if a.op == "bvconst":
        return bv_const(a.value >> amount, a.width)
    return Term("lshr", (a,), width=a.width, value=amount)


# ----------------------------------------------------------------------
# BV-valued predicates (Bool sort)
# ----------------------------------------------------------------------

def eq(a: Term, b: Term) -> Term:
    if a.is_bool and b.is_bool:
        return iff(a, b)
    w = _require_bv_same(a, b)
    del w
    if a is b:
        return TRUE
    if _both_const(a, b):
        return bool_const(a.value == b.value)
    return Term("eq", (a, b))


def ne(a: Term, b: Term) -> Term:
    return mk_not(eq(a, b))


def ult(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    del w
    if a is b:
        return FALSE
    if _both_const(a, b):
        return bool_const(a.value < b.value)
    return Term("ult", (a, b))


def ule(a: Term, b: Term) -> Term:
    return mk_not(ult(b, a))


def _to_signed(value: int, width: int) -> int:
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def slt(a: Term, b: Term) -> Term:
    w = _require_bv_same(a, b)
    if a is b:
        return FALSE
    if _both_const(a, b):
        return bool_const(_to_signed(a.value, w) < _to_signed(b.value, w))
    return Term("slt", (a, b))


def sle(a: Term, b: Term) -> Term:
    return mk_not(slt(b, a))


# ----------------------------------------------------------------------
# Reference evaluator (testing oracle)
# ----------------------------------------------------------------------

def evaluate(term: Term, env: Dict[str, object]):
    """Evaluate ``term`` under ``env`` mapping variable names to values.

    Bool variables map to ``bool``; BV variables map to non-negative ``int``
    (interpreted modulo 2^width).  This is the testing oracle the
    bit-blaster is validated against.
    """
    op = term.op
    if op == "boolconst":
        return term.value
    if op == "bvconst":
        return term.value
    if op == "boolvar":
        return bool(env[term.name])
    if op == "bvvar":
        return int(env[term.name]) & _mask(term.width)  # type: ignore[arg-type]
    args = [evaluate(a, env) for a in term.args]
    if op == "not":
        return not args[0]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "xor":
        return args[0] != args[1]
    if op == "ite":
        return args[1] if args[0] else args[2]
    w = term.width
    if op == "bvadd":
        return (args[0] + args[1]) & _mask(w)
    if op == "bvsub":
        return (args[0] - args[1]) & _mask(w)
    if op == "bvmul":
        return (args[0] * args[1]) & _mask(w)
    if op == "bvneg":
        return (-args[0]) & _mask(w)
    if op == "bvand":
        return args[0] & args[1]
    if op == "bvor":
        return args[0] | args[1]
    if op == "bvxor":
        return args[0] ^ args[1]
    if op == "bvnot":
        return (~args[0]) & _mask(w)
    if op == "bvite":
        return args[1] if args[0] else args[2]
    if op == "shl":
        return (args[0] << term.value) & _mask(w)
    if op == "lshr":
        return args[0] >> term.value
    aw = term.args[0].width
    if op == "eq":
        return args[0] == args[1]
    if op == "ult":
        return args[0] < args[1]
    if op == "slt":
        return _to_signed(args[0], aw) < _to_signed(args[1], aw)
    raise ValueError(f"unknown operator {op!r}")
