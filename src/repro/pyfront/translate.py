"""The ``ast``-based Python -> mini-language translator.

The accepted subset (see ``docs/PYFRONT.md`` for the full contract):

* **module level**: ``import threading`` / ``import random`` (aliases
  allowed); shared globals ``name = <int literal>`` (``True``/``False``
  count as 1/0); mutexes ``name = threading.Lock()`` or ``RLock()``;
  zero-argument ``def`` functions; and one trailing
  ``if __name__ == "__main__":`` block -- the program's main thread;
* **main block**: ``t = threading.Thread(target=fn)`` bindings,
  ``t.start()`` / ``t.join()``, plus any thread-body statement;
* **thread/function bodies**: assignments and augmented assignments over
  ``int`` locals and shared globals (``global`` declarations honored with
  Python's scoping rules: a name assigned anywhere in a function without
  ``global`` is local *everywhere* in it), ``assert``, ``if``/``elif``/
  ``else``, ``while``, ``for .. in range(..)``, ``with lock:``,
  ``lock.acquire()``/``release()``, ``pass``, ``print(...)`` (modeled as
  a no-op), calls to zero-argument helper functions (inlined, recursion
  rejected), and ``random.randint(lo, hi)`` as a nondeterministic int
  bounded by an ``assume``;
* **expressions**: int/bool literals, names, ``+ - * & | ^``, unary
  ``-``/``~``/``not``, comparisons (chaining allowed), ``and``/``or``.

Everything else raises :class:`~repro.pyfront.subset.SubsetError` with a
``file:line:col`` diagnostic.  Translated mini-AST nodes carry the
*Python* source positions, so semantic errors, static race warnings
(:mod:`repro.analysis`) and witness annotation all point back at the
original file.
"""

from __future__ import annotations

import ast as pyast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lang import ast as mast
from repro.lang.lexer import KEYWORDS as _MINI_KEYWORDS
from repro.pyfront.subset import SubsetError

__all__ = ["Translation", "ThreadBinding", "translate_source", "translate_file"]

#: Python AST binary ops -> mini-language operator text.
_BINOPS = {
    pyast.Add: "+",
    pyast.Sub: "-",
    pyast.Mult: "*",
    pyast.BitAnd: "&",
    pyast.BitOr: "|",
    pyast.BitXor: "^",
}

_CMPOPS = {
    pyast.Eq: "==",
    pyast.NotEq: "!=",
    pyast.Lt: "<",
    pyast.LtE: "<=",
    pyast.Gt: ">",
    pyast.GtE: ">=",
}

#: Inline depth cap for helper-function calls (recursion is rejected
#: outright; this bounds pathological but acyclic call chains).
_MAX_INLINE_DEPTH = 16

_SEMA_POS = re.compile(r"^(\d+):(\d+): (.*)$", re.S)


@dataclass(frozen=True)
class ThreadBinding:
    """One ``t = threading.Thread(target=fn)`` binding in the main block."""

    name: str  # the mini thread name (Python variable, keyword-mangled)
    target: str  # the target function's name
    line: int  # creation site, for dynexec thread-identity matching


@dataclass
class Translation:
    """The result of translating one Python program.

    Attributes:
        program: the mini-language AST; node positions are Python
            ``(line, col)`` pairs into ``source``.
        path: the Python file name used in diagnostics.
        source: the original Python source text.
        shared_lines: Python line numbers whose statements touch shared
            state (shared-global reads/writes, lock operations,
            ``start``/``join``) -- the preemption points of the dynamic
            executor (:mod:`repro.pyfront.dynexec`).
        thread_order: :class:`ThreadBinding` records in creation order.
        shared_globals: names of the shared int globals.
        locks: names of the mutex globals (``rlocks`` is the reentrant
            subset).
        mini_names: Python name -> mini-language identifier for every
            global, lock and thread variable (they differ where a
            Python name is a mini keyword: ``lock`` becomes ``lock_``).
    """

    program: mast.Program
    path: str
    source: str
    shared_lines: frozenset = frozenset()
    thread_order: Tuple[ThreadBinding, ...] = ()
    shared_globals: Tuple[str, ...] = ()
    locks: Tuple[str, ...] = ()
    rlocks: Tuple[str, ...] = ()
    mini_names: Dict[str, str] = field(default_factory=dict)

    def python_line(self, lineno: int) -> str:
        """The raw source line at 1-based ``lineno`` (empty if absent)."""
        lines = self.source.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""


def translate_source(source: str, filename: str = "<python>") -> Translation:
    """Translate Python ``source``; raise :class:`SubsetError` outside
    the subset (including plain syntax errors)."""
    try:
        module = pyast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise SubsetError(
            f"not valid Python: {exc.msg}",
            path=filename,
            line=exc.lineno,
            col=exc.offset,
        ) from None
    return _Translator(module, source, filename).run()


def translate_file(path: str) -> Translation:
    """Translate the Python program at ``path``."""
    with open(path, "r", encoding="utf-8") as f:
        source = f.read()
    return translate_source(source, filename=path)


# ----------------------------------------------------------------------
# Scope analysis
# ----------------------------------------------------------------------


def _scan_scope(body: List[pyast.stmt]) -> Tuple[Set[str], Set[str]]:
    """Python function scoping: ``(assigned names, global-declared
    names)`` over a whole body.  A name assigned anywhere without a
    ``global`` declaration is local throughout the function."""
    assigned: Set[str] = set()
    declared_global: Set[str] = set()

    def walk(stmts: List[pyast.stmt]) -> None:
        for s in stmts:
            if isinstance(s, pyast.Global):
                declared_global.update(s.names)
            elif isinstance(s, pyast.Assign):
                for t in s.targets:
                    if isinstance(t, pyast.Name):
                        assigned.add(t.id)
            elif isinstance(s, pyast.AugAssign):
                if isinstance(s.target, pyast.Name):
                    assigned.add(s.target.id)
            elif isinstance(s, pyast.For):
                if isinstance(s.target, pyast.Name):
                    assigned.add(s.target.id)
                walk(s.body)
                walk(s.orelse)
            elif isinstance(s, (pyast.If, pyast.While)):
                walk(s.body)
                walk(s.orelse)
            elif isinstance(s, pyast.With):
                walk(s.body)

    walk(body)
    return assigned - declared_global, declared_global


class _Scope:
    """One translation scope (a thread body, the main block, or an
    inlined helper): maps Python local names to unique mini names."""

    def __init__(self, translator: "_Translator", prefix: str = "") -> None:
        self.tr = translator
        self.prefix = prefix
        self.locals: Dict[str, str] = {}
        self.global_decls: Set[str] = set()
        #: Names bound to Thread objects (main scope only).
        self.threads: Dict[str, ThreadBinding] = {}
        #: Locks statically held via enclosing ``with`` blocks.
        self.held: Tuple[str, ...] = ()
        #: Mini names already claimed in the enclosing thread (shared
        #: across inlined helpers so hoisted decls never collide).
        self.taken: Set[str]
        self.decls: List[mast.Stmt] = []


# ----------------------------------------------------------------------
# The translator
# ----------------------------------------------------------------------


class _Translator:
    def __init__(self, module: pyast.Module, source: str, path: str) -> None:
        self.module = module
        self.source = source
        self.path = path
        self.shared: Dict[str, int] = {}  # global name -> init value
        self.lock_names: List[str] = []
        self.rlock_names: Set[str] = set()
        self.functions: Dict[str, pyast.FunctionDef] = {}
        self.threading_aliases: Set[str] = set()
        self.random_aliases: Set[str] = set()
        self.main_body: Optional[List[pyast.stmt]] = None
        self.main_line: int = 0
        self.shared_lines: Set[int] = set()
        self.thread_order: List[ThreadBinding] = []
        self._tmp_counter = 0
        self._global_pos: Dict[str, Tuple[int, int]] = {}
        self._mini_idents: Dict[str, str] = {}

    # -- small helpers --------------------------------------------------

    def _m(self, name: str) -> str:
        """The mini-language identifier for a Python name.

        Python happily names a mutex ``lock`` or a thread ``main`` --
        both mini-language keywords -- and the translated program must
        unparse to re-parseable canonical source (that form is the
        service's verdict-cache key).  Colliding names get underscores
        appended until they are plain identifiers, uniquely per Python
        name.
        """
        mini = self._mini_idents.get(name)
        if mini is None:
            mini = name
            taken = set(self._mini_idents.values())
            while mini in _MINI_KEYWORDS or mini in taken:
                mini += "_"
            self._mini_idents[name] = mini
        return mini

    def err(self, node, message: str) -> SubsetError:
        return SubsetError.at(node, message, path=self.path)

    def pos(self, node) -> Tuple[int, int]:
        return (node.lineno, node.col_offset + 1)

    def is_global_name(self, name: str) -> bool:
        return (
            name in self.shared
            or name in self.lock_names
            or name in self.functions
            or name in self.threading_aliases
            or name in self.random_aliases
        )

    # -- module level ---------------------------------------------------

    def run(self) -> Translation:
        for node in self.module.body:
            self._module_stmt(node)
        if self.main_body is None:
            raise SubsetError(
                "missing 'if __name__ == \"__main__\":' block (the program "
                "needs a main thread to verify)",
                path=self.path,
                line=len(self.source.splitlines()) or 1,
            )
        globals_ = [
            mast.GlobalDecl(self._m(name), init, pos=self._global_pos.get(name))
            for name, init in self.shared.items()
        ]
        globals_ += [
            mast.GlobalDecl(
                self._m(name), 0, is_lock=True, pos=self._global_pos.get(name)
            )
            for name in self.lock_names
        ]

        taken: Set[str] = {
            self._m(n) for n in (*self.shared, *self.lock_names)
        }
        main_scope = self._new_scope(taken=set(taken))
        main_stmts = self._translate_body(
            self.main_body, main_scope, is_main=True
        )
        threads: List[mast.ThreadDef] = []
        for binding in self.thread_order:
            fn = self.functions[binding.target]
            scope = self._new_scope(taken=set(taken))
            body = self._translate_body(fn.body, scope, is_main=False)
            threads.append(
                mast.ThreadDef(binding.name, scope.decls + body, pos=self.pos(fn))
            )
        main = mast.ThreadDef(
            "main", main_scope.decls + main_stmts, pos=(self.main_line, 1)
        )
        program = mast.Program(globals_, threads, main)
        self._check(program)
        return Translation(
            program=program,
            path=self.path,
            source=self.source,
            shared_lines=frozenset(self.shared_lines),
            thread_order=tuple(self.thread_order),
            shared_globals=tuple(self.shared),
            locks=tuple(self.lock_names),
            rlocks=tuple(sorted(self.rlock_names)),
            mini_names=dict(self._mini_idents),
        )

    def _check(self, program: mast.Program) -> None:
        """Run the mini-language semantic checker; its positions are
        Python positions here, so re-raise as a located SubsetError."""
        from repro.lang.sema import SemanticError, check_program

        try:
            check_program(program)
        except SemanticError as exc:
            m = _SEMA_POS.match(str(exc))
            if m:
                raise SubsetError(
                    m.group(3), path=self.path,
                    line=int(m.group(1)), col=int(m.group(2)),
                ) from None
            raise SubsetError(str(exc), path=self.path) from None

    def _module_stmt(self, node: pyast.stmt) -> None:
        if isinstance(node, pyast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    self.threading_aliases.add(alias.asname or alias.name)
                elif alias.name == "random":
                    self.random_aliases.add(alias.asname or alias.name)
                else:
                    raise self.err(
                        node,
                        f"unsupported import {alias.name!r} (only "
                        "'threading' and 'random' are in the subset)",
                    )
            return
        if isinstance(node, pyast.ImportFrom):
            raise self.err(
                node, "unsupported 'from ... import'; use plain "
                "'import threading' / 'import random'"
            )
        if isinstance(node, pyast.Assign):
            self._module_assign(node)
            return
        if isinstance(node, pyast.FunctionDef):
            if node.decorator_list:
                raise self.err(node, "decorators are outside the subset")
            args = node.args
            if (
                args.args or args.posonlyargs or args.kwonlyargs
                or args.vararg or args.kwarg
            ):
                raise self.err(
                    node,
                    f"function {node.name!r} takes arguments; only "
                    "zero-argument functions are in the subset",
                )
            if node.name in self.functions or self.is_global_name(node.name):
                raise self.err(node, f"duplicate definition of {node.name!r}")
            self.functions[node.name] = node
            return
        if isinstance(node, pyast.If) and self._is_main_guard(node.test):
            if self.main_body is not None:
                raise self.err(node, "duplicate __main__ block")
            if node.orelse:
                raise self.err(node, "__main__ block cannot have an else")
            self.main_body = node.body
            self.main_line = node.lineno
            return
        if isinstance(node, pyast.Expr) and isinstance(
            node.value, pyast.Constant
        ) and isinstance(node.value.value, str):
            return  # module docstring
        raise self.err(
            node,
            f"unsupported module-level statement {type(node).__name__}; "
            "program logic belongs under if __name__ == \"__main__\":",
        )

    def _is_main_guard(self, test: pyast.expr) -> bool:
        return (
            isinstance(test, pyast.Compare)
            and isinstance(test.left, pyast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1
            and isinstance(test.ops[0], pyast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], pyast.Constant)
            and test.comparators[0].value == "__main__"
        )

    def _module_assign(self, node: pyast.Assign) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], pyast.Name):
            raise self.err(
                node, "module-level assignment must bind one plain name"
            )
        name = node.targets[0].id
        if self.is_global_name(name):
            raise self.err(node, f"duplicate global {name!r}")
        lock_kind = self._lock_ctor(node.value)
        if lock_kind is not None:
            self.lock_names.append(name)
            if lock_kind == "RLock":
                self.rlock_names.add(name)
            self._global_pos[name] = self.pos(node)
            return
        value = self._const_int(node.value)
        if value is None:
            raise self.err(
                node.value,
                "shared globals must be initialized with an int/bool "
                "literal (or threading.Lock()/RLock())",
            )
        self.shared[name] = value
        self._global_pos[name] = self.pos(node)

    def _lock_ctor(self, value: pyast.expr) -> Optional[str]:
        """``threading.Lock()``/``RLock()`` -> the ctor name, else None."""
        if not (isinstance(value, pyast.Call) and not value.args
                and not value.keywords):
            return None
        fn = value.func
        if (
            isinstance(fn, pyast.Attribute)
            and isinstance(fn.value, pyast.Name)
            and fn.value.id in self.threading_aliases
            and fn.attr in ("Lock", "RLock")
        ):
            return fn.attr
        return None

    def _const_int(self, node: pyast.expr) -> Optional[int]:
        if isinstance(node, pyast.Constant):
            if isinstance(node.value, bool):
                return int(node.value)
            if isinstance(node.value, int):
                return node.value
            return None
        if (
            isinstance(node, pyast.UnaryOp)
            and isinstance(node.op, pyast.USub)
        ):
            inner = self._const_int(node.operand)
            return None if inner is None else -inner
        return None

    # -- scopes and bodies ----------------------------------------------

    def _new_scope(self, taken: Set[str], prefix: str = "") -> _Scope:
        scope = _Scope(self, prefix=prefix)
        scope.taken = taken
        return scope

    def _claim_mini_name(self, scope: _Scope, name: str) -> str:
        """A unique, non-shadowing mini name for a Python local."""
        candidate = scope.prefix + name
        k = 2
        while candidate in scope.taken or candidate in _MINI_KEYWORDS:
            candidate = f"{scope.prefix}{name}_{k}"
            k += 1
        scope.taken.add(candidate)
        return candidate

    def _translate_body(
        self,
        body: List[pyast.stmt],
        scope: _Scope,
        is_main: bool,
        inline_depth: int = 0,
    ) -> List[mast.Stmt]:
        assigned, global_decls = _scan_scope(body)
        if is_main and inline_depth == 0:
            # The __main__ block runs at module scope: an assignment to a
            # shared global there hits the global without any `global`
            # declaration.  Rebinding a lock or function name, however,
            # is outside the subset.
            for name in sorted(assigned):
                if name in self.lock_names or name in self.functions:
                    raise SubsetError(
                        f"rebinding module name {name!r} in the __main__ "
                        "block is outside the subset",
                        path=self.path,
                        line=self.main_line,
                    )
            shared_assigned = assigned & set(self.shared)
            global_decls |= shared_assigned
            assigned -= shared_assigned
        scope.global_decls |= global_decls
        for g in sorted(global_decls):
            if g not in self.shared:
                # locate the offending `global` statement if possible
                for s in body:
                    if isinstance(s, pyast.Global) and g in s.names:
                        raise self.err(
                            s, f"'global {g}' does not name a shared int "
                            "global",
                        )
                raise SubsetError(
                    f"'global {g}' does not name a shared int global",
                    path=self.path,
                )
        # Hoist every local with an int-zero declaration: Python locals
        # have no declaration point, the mini language requires one.  A
        # Python read-before-assign would be an UnboundLocalError at
        # runtime; the model reads 0 instead (documented limitation).
        pending_locals = sorted(assigned)
        out: List[mast.Stmt] = []
        # Thread bindings are discovered while translating; pre-scan for
        # them so their names are not hoisted as int locals.
        thread_bound = self._prescan_thread_names(body) if is_main else set()
        for name in pending_locals:
            if name in thread_bound:
                continue
            mini = self._claim_mini_name(scope, name)
            scope.locals[name] = mini
            scope.decls.append(
                mast.LocalDecl(
                    mini, mast.IntLit(0), pos=(body[0].lineno, 1) if body else None
                )
            )
        for i, s in enumerate(body):
            out.extend(
                self._stmt(
                    s, scope, is_main,
                    is_last=(i == len(body) - 1),
                    inline_depth=inline_depth,
                )
            )
        return out

    def _prescan_thread_names(self, body: List[pyast.stmt]) -> Set[str]:
        names: Set[str] = set()
        for s in body:
            if (
                isinstance(s, pyast.Assign)
                and len(s.targets) == 1
                and isinstance(s.targets[0], pyast.Name)
                and self._thread_ctor(s.value) is not None
            ):
                names.add(s.targets[0].id)
        return names

    def _thread_ctor(self, value: pyast.expr) -> Optional[str]:
        """``threading.Thread(target=fn)`` -> target function name."""
        if not isinstance(value, pyast.Call):
            return None
        fn = value.func
        if not (
            isinstance(fn, pyast.Attribute)
            and isinstance(fn.value, pyast.Name)
            and fn.value.id in self.threading_aliases
            and fn.attr == "Thread"
        ):
            return None
        if value.args:
            raise self.err(
                value, "threading.Thread: positional arguments are outside "
                "the subset; use Thread(target=fn)"
            )
        target: Optional[str] = None
        for kw in value.keywords:
            if kw.arg == "target" and isinstance(kw.value, pyast.Name):
                target = kw.value.id
            elif kw.arg == "args":
                if not (
                    isinstance(kw.value, pyast.Tuple) and not kw.value.elts
                ):
                    raise self.err(
                        kw.value,
                        "threading.Thread: only zero-argument targets are "
                        "in the subset (args must be empty)",
                    )
            else:
                raise self.err(
                    value,
                    f"threading.Thread: unsupported keyword {kw.arg!r}",
                )
        if target is None:
            raise self.err(
                value, "threading.Thread needs target=<function name>"
            )
        return target

    # -- statements -----------------------------------------------------

    def _stmt(
        self,
        node: pyast.stmt,
        scope: _Scope,
        is_main: bool,
        is_last: bool = False,
        inline_depth: int = 0,
    ) -> List[mast.Stmt]:
        pos = self.pos(node)
        prelude: List[mast.Stmt] = []

        if isinstance(node, pyast.Global):
            return []
        if isinstance(node, pyast.Pass):
            return [mast.Skip(pos=pos)]
        if isinstance(node, pyast.Expr):
            return self._expr_stmt(node, scope, is_main, inline_depth)
        if isinstance(node, pyast.Assign):
            return self._assign(node, scope, is_main)
        if isinstance(node, pyast.AugAssign):
            return self._aug_assign(node, scope)
        if isinstance(node, pyast.Assert):
            cond = self._bool(node.test, scope, prelude)
            return prelude + [mast.Assert(cond, pos=pos)]
        if isinstance(node, pyast.If):
            cond = self._bool(node.test, scope, prelude)
            then = self._block(node.body, scope, is_main, inline_depth)
            orelse = self._block(node.orelse, scope, is_main, inline_depth)
            return prelude + [mast.If(cond, then, orelse, pos=pos)]
        if isinstance(node, pyast.While):
            if node.orelse:
                raise self.err(node, "while/else is outside the subset")
            cond = self._bool(node.test, scope, prelude)
            if prelude:
                raise self.err(
                    node.test,
                    "random.randint in a while condition is outside the "
                    "subset (bind it to a variable first)",
                )
            body = self._block(node.body, scope, is_main, inline_depth)
            return [mast.While(cond, body, pos=pos)]
        if isinstance(node, pyast.For):
            return self._for_range(node, scope, is_main, inline_depth)
        if isinstance(node, pyast.With):
            return self._with(node, scope, is_main, inline_depth)
        if isinstance(node, pyast.Return):
            if node.value is not None:
                raise self.err(
                    node, "'return <value>' is outside the subset "
                    "(helper functions cannot return values)"
                )
            if not is_last:
                raise self.err(
                    node, "early 'return' is outside the subset (only a "
                    "bare return as the last statement is accepted)"
                )
            return []
        raise self.err(
            node, f"unsupported statement {type(node).__name__}"
        )

    def _block(
        self,
        body: List[pyast.stmt],
        scope: _Scope,
        is_main: bool,
        inline_depth: int,
    ) -> List[mast.Stmt]:
        out: List[mast.Stmt] = []
        for i, s in enumerate(body):
            out.extend(
                self._stmt(
                    s, scope, is_main,
                    is_last=False,
                    inline_depth=inline_depth,
                )
            )
        return out

    def _expr_stmt(
        self,
        node: pyast.Expr,
        scope: _Scope,
        is_main: bool,
        inline_depth: int,
    ) -> List[mast.Stmt]:
        value = node.value
        pos = self.pos(node)
        if isinstance(value, pyast.Constant):
            return []  # docstring / stray literal
        if not isinstance(value, pyast.Call):
            raise self.err(
                node, "expression statements must be calls "
                "(start/join/acquire/release/print/helper)"
            )
        fn = value.func
        # t.start() / t.join() / m.acquire() / m.release()
        if isinstance(fn, pyast.Attribute) and isinstance(fn.value, pyast.Name):
            owner, method = fn.value.id, fn.attr
            if owner in scope.threads:
                if value.args or value.keywords:
                    raise self.err(
                        value, f"{method}() on a Thread takes no arguments "
                        "in the subset"
                    )
                if method == "start":
                    self.shared_lines.add(node.lineno)
                    return [mast.Start(scope.threads[owner].name, pos=pos)]
                if method == "join":
                    self.shared_lines.add(node.lineno)
                    return [mast.Join(scope.threads[owner].name, pos=pos)]
                raise self.err(value, f"unsupported Thread method {method!r}")
            if owner in self.lock_names:
                if value.args or value.keywords:
                    raise self.err(
                        value,
                        f"{method}() with arguments (blocking=/timeout=) is "
                        "outside the subset",
                    )
                self.shared_lines.add(node.lineno)
                if method == "acquire":
                    return [mast.Lock(self._m(owner), pos=pos)]
                if method == "release":
                    return [mast.Unlock(self._m(owner), pos=pos)]
                raise self.err(value, f"unsupported lock method {method!r}")
            raise self.err(
                value, f"unsupported method call on {owner!r}"
            )
        if isinstance(fn, pyast.Name):
            if fn.id == "print":
                return [mast.Skip(pos=pos)]  # I/O is invisible to the model
            if fn.id in self.functions:
                if value.args or value.keywords:
                    raise self.err(
                        value, f"{fn.id}() takes no arguments in the subset"
                    )
                return self._inline_call(fn.id, value, scope, is_main, inline_depth)
            if self._thread_ctor(value) is not None:
                raise self.err(
                    value, "a threading.Thread(...) must be bound to a "
                    "variable (t = threading.Thread(target=fn))"
                )
            raise self.err(value, f"call to unknown function {fn.id!r}")
        raise self.err(node, "unsupported call expression")

    def _inline_call(
        self,
        name: str,
        node: pyast.Call,
        scope: _Scope,
        is_main: bool,
        inline_depth: int,
    ) -> List[mast.Stmt]:
        if inline_depth >= _MAX_INLINE_DEPTH:
            raise self.err(
                node,
                f"call chain through {name!r} exceeds the inline depth cap "
                f"({_MAX_INLINE_DEPTH}); recursive helpers are outside the "
                "subset",
            )
        fn = self.functions[name]
        self._tmp_counter += 1
        inner = self._new_scope(
            taken=scope.taken, prefix=f"{name}_{self._tmp_counter}__"
        )
        inner.threads = scope.threads  # helpers may not create threads,
        inner.held = scope.held  # but see held locks for reentry checks
        body = self._translate_body(
            fn.body, inner, is_main=False, inline_depth=inline_depth + 1
        )
        return inner.decls + body

    def _assign(
        self, node: pyast.Assign, scope: _Scope, is_main: bool
    ) -> List[mast.Stmt]:
        if len(node.targets) != 1 or not isinstance(node.targets[0], pyast.Name):
            raise self.err(
                node, "assignment must bind exactly one plain name "
                "(tuple/attribute/subscript targets are outside the subset)"
            )
        name = node.targets[0].id
        pos = self.pos(node)
        target_thread = self._thread_ctor(node.value)
        if target_thread is not None:
            if not is_main:
                raise self.err(
                    node, "threads can only be created in the __main__ block"
                )
            if target_thread not in self.functions:
                raise self.err(
                    node.value,
                    f"Thread target {target_thread!r} is not a module-level "
                    "function",
                )
            if name in scope.threads:
                raise self.err(
                    node, f"thread variable {name!r} rebound (each Thread "
                    "needs its own variable)"
                )
            if name in scope.locals or self.is_global_name(name):
                raise self.err(
                    node, f"thread variable {name!r} collides with another "
                    "name"
                )
            binding = ThreadBinding(self._m(name), target_thread, node.lineno)
            scope.threads[name] = binding
            self.thread_order.append(binding)
            return []
        prelude: List[mast.Stmt] = []
        value = self._expr(node.value, scope, prelude)
        mini = self._resolve_write(node.targets[0], name, scope)
        return prelude + [mast.Assign(mini, value, pos=pos)]

    def _aug_assign(self, node: pyast.AugAssign, scope: _Scope) -> List[mast.Stmt]:
        if not isinstance(node.target, pyast.Name):
            raise self.err(node, "augmented assignment target must be a name")
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise self.err(
                node, f"unsupported augmented operator "
                f"{type(node.op).__name__} (use += -= *= &= |= ^=)"
            )
        name = node.target.id
        prelude: List[mast.Stmt] = []
        rhs = self._expr(node.value, scope, prelude)
        mini = self._resolve_write(node.target, name, scope)
        read = mast.VarRef(mini, pos=self.pos(node.target))
        return prelude + [
            mast.Assign(mini, mast.Binary(op, read, rhs), pos=self.pos(node))
        ]

    def _resolve_write(self, node, name: str, scope: _Scope) -> str:
        if name in scope.locals:
            return scope.locals[name]
        if name in scope.global_decls and name in self.shared:
            self.shared_lines.add(node.lineno)
            return self._m(name)
        if name in self.shared:
            raise self.err(
                node,
                f"assignment to shared global {name!r} without a 'global "
                f"{name}' declaration (in Python this would create a "
                "local)",
            )
        if name in self.lock_names:
            raise self.err(node, f"cannot assign to lock {name!r}")
        raise self.err(node, f"assignment to unknown name {name!r}")

    def _for_range(
        self,
        node: pyast.For,
        scope: _Scope,
        is_main: bool,
        inline_depth: int,
    ) -> List[mast.Stmt]:
        if node.orelse:
            raise self.err(node, "for/else is outside the subset")
        if not isinstance(node.target, pyast.Name):
            raise self.err(node, "for target must be a plain name")
        it = node.iter
        ok = (
            isinstance(it, pyast.Call)
            and isinstance(it.func, pyast.Name)
            and it.func.id == "range"
            and not it.keywords
            and 1 <= len(it.args) <= 2
        )
        if not ok:
            raise self.err(
                node, "only 'for NAME in range(stop)' / 'range(start, stop)' "
                "loops are in the subset"
            )
        prelude: List[mast.Stmt] = []
        if len(it.args) == 1:
            lo: mast.Expr = mast.IntLit(0, pos=self.pos(it))
            hi = self._expr(it.args[0], scope, prelude)
        else:
            lo = self._expr(it.args[0], scope, prelude)
            hi = self._expr(it.args[1], scope, prelude)
        if prelude:
            raise self.err(
                it, "random.randint in a range bound is outside the subset "
                "(bind it to a variable first)"
            )
        name = node.target.id
        mini = self._resolve_write(node.target, name, scope)
        pos = self.pos(node)
        var = mast.VarRef(mini, pos=pos)
        body = self._block(node.body, scope, is_main, inline_depth)
        body.append(
            mast.Assign(mini, mast.Binary("+", var, mast.IntLit(1)), pos=pos)
        )
        return [
            mast.Assign(mini, lo, pos=pos),
            mast.While(mast.Binary("<", var, hi), body, pos=pos),
        ]

    def _with(
        self,
        node: pyast.With,
        scope: _Scope,
        is_main: bool,
        inline_depth: int,
    ) -> List[mast.Stmt]:
        pos = self.pos(node)
        names: List[str] = []
        for item in node.items:
            if item.optional_vars is not None:
                raise self.err(node, "'with lock as x' is outside the subset")
            ctx = item.context_expr
            if not (isinstance(ctx, pyast.Name) and ctx.id in self.lock_names):
                raise self.err(
                    ctx if hasattr(ctx, "lineno") else node,
                    "with-statement context must be a module-level "
                    "threading.Lock()/RLock()",
                )
            names.append(ctx.id)
        self.shared_lines.add(node.lineno)
        out: List[mast.Stmt] = []
        closers: List[mast.Stmt] = []
        saved_held = scope.held
        for name in names:
            if name in scope.held:
                if name in self.rlock_names:
                    continue  # reentrant acquire: a no-op in the model
                raise self.err(
                    node,
                    f"re-acquiring non-reentrant Lock {name!r} already held "
                    "here would deadlock",
                )
            out.append(mast.Lock(self._m(name), pos=pos))
            closers.insert(0, mast.Unlock(self._m(name), pos=pos))
            scope.held = scope.held + (name,)
        out.extend(self._block(node.body, scope, is_main, inline_depth))
        scope.held = saved_held
        return out + closers

    # -- expressions ----------------------------------------------------

    def _fresh_tmp(self, scope: _Scope) -> str:
        while True:
            self._tmp_counter += 1
            name = f"_nd{self._tmp_counter}"
            if name not in scope.taken:
                scope.taken.add(name)
                return name

    def _expr(
        self, node: pyast.expr, scope: _Scope, prelude: List[mast.Stmt]
    ) -> mast.Expr:
        pos = self.pos(node)
        if isinstance(node, pyast.Constant):
            if isinstance(node.value, bool):
                return mast.IntLit(int(node.value), pos=pos)
            if isinstance(node.value, int):
                return mast.IntLit(node.value, pos=pos)
            raise self.err(
                node, f"unsupported literal {node.value!r} (ints and bools "
                "only)"
            )
        if isinstance(node, pyast.Name):
            name = node.id
            if name in scope.locals:
                return mast.VarRef(scope.locals[name], pos=pos)
            if name in self.shared:
                self.shared_lines.add(node.lineno)
                return mast.VarRef(self._m(name), pos=pos)
            if name in self.lock_names:
                raise self.err(node, f"lock {name!r} used as a value")
            if name in scope.threads:
                raise self.err(node, f"thread {name!r} used as a value")
            raise self.err(node, f"unknown name {name!r}")
        if isinstance(node, pyast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise self.err(
                    node, f"unsupported operator {type(node.op).__name__} "
                    "(use + - * & | ^)"
                )
            left = self._expr(node.left, scope, prelude)
            right = self._expr(node.right, scope, prelude)
            return mast.Binary(op, left, right, pos=pos)
        if isinstance(node, pyast.UnaryOp):
            if isinstance(node.op, pyast.USub):
                return mast.Unary(
                    "-", self._expr(node.operand, scope, prelude), pos=pos
                )
            if isinstance(node.op, pyast.Invert):
                return mast.Unary(
                    "~", self._expr(node.operand, scope, prelude), pos=pos
                )
            if isinstance(node.op, pyast.Not):
                return mast.Unary(
                    "!", self._bool(node.operand, scope, prelude), pos=pos
                )
            raise self.err(node, "unsupported unary operator")
        if isinstance(node, (pyast.Compare, pyast.BoolOp)):
            return self._bool(node, scope, prelude)
        if isinstance(node, pyast.Call):
            return self._call_expr(node, scope, prelude)
        raise self.err(
            node, f"unsupported expression {type(node).__name__}"
        )

    def _call_expr(
        self, node: pyast.Call, scope: _Scope, prelude: List[mast.Stmt]
    ) -> mast.Expr:
        fn = node.func
        if (
            isinstance(fn, pyast.Attribute)
            and isinstance(fn.value, pyast.Name)
            and fn.value.id in self.random_aliases
            and fn.attr == "randint"
        ):
            if len(node.args) != 2 or node.keywords:
                raise self.err(node, "random.randint takes exactly (lo, hi)")
            lo = self._const_int(node.args[0])
            hi = self._const_int(node.args[1])
            if lo is None or hi is None:
                raise self.err(
                    node, "random.randint bounds must be int literals"
                )
            if lo > hi:
                raise self.err(node, f"empty randint range [{lo}, {hi}]")
            pos = self.pos(node)
            tmp = self._fresh_tmp(scope)
            prelude.append(mast.LocalDecl(tmp, mast.Nondet(pos=pos), pos=pos))
            prelude.append(
                mast.Assume(
                    mast.Binary(
                        "&&",
                        mast.Binary(">=", mast.VarRef(tmp), mast.IntLit(lo)),
                        mast.Binary("<=", mast.VarRef(tmp), mast.IntLit(hi)),
                    ),
                    pos=pos,
                )
            )
            return mast.VarRef(tmp, pos=pos)
        raise self.err(
            node, "unsupported call in expression (only random.randint "
            "yields a value in the subset)"
        )

    def _bool(
        self, node: pyast.expr, scope: _Scope, prelude: List[mast.Stmt]
    ) -> mast.Expr:
        """Translate an expression in boolean position (truthiness is
        made explicit as ``!= 0`` for arithmetic operands)."""
        pos = self.pos(node)
        if isinstance(node, pyast.BoolOp):
            op = "&&" if isinstance(node.op, pyast.And) else "||"
            out = self._bool(node.values[0], scope, prelude)
            for v in node.values[1:]:
                out = mast.Binary(op, out, self._bool(v, scope, prelude), pos=pos)
            return out
        if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.Not):
            return mast.Unary(
                "!", self._bool(node.operand, scope, prelude), pos=pos
            )
        if isinstance(node, pyast.Compare):
            terms: List[mast.Expr] = []
            left = self._expr(node.left, scope, prelude)
            for op_node, comparator in zip(node.ops, node.comparators):
                op = _CMPOPS.get(type(op_node))
                if op is None:
                    raise self.err(
                        node, f"unsupported comparison "
                        f"{type(op_node).__name__} (is/in are outside the "
                        "subset)"
                    )
                right = self._expr(comparator, scope, prelude)
                terms.append(mast.Binary(op, left, right, pos=pos))
                left = right
            out = terms[0]
            for t in terms[1:]:
                out = mast.Binary("&&", out, t, pos=pos)
            return out
        # Arithmetic truthiness: `if flag:` means `flag != 0`.
        return mast.Binary(
            "!=", self._expr(node, scope, prelude), mast.IntLit(0), pos=pos
        )
