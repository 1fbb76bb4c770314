"""Seeded random concurrent-program generator for differential fuzzing.

Programs are generated directly as ASTs (:mod:`repro.lang.ast`) and are
**valid by construction**: every program passes
:func:`repro.lang.sema.check_program` and round-trips through the
unparser/parser.  The generator covers the whole mini language the
engines support -- shared and local ints, multiple threads, locks
(balanced, acquired in index order so no generated program can
deadlock by lock ordering), read-modify-write ``atomic`` blocks,
``nondet()``, bounded ``while`` loops, ``if``/``else``, ``assume``,
``fence`` -- and always ends ``main`` with at least one assertion over
the shared state, so every program has a property to disagree about.

Symmetric mode: one seed in :data:`SYMMETRIC_EVERY` (outside the Python
profile) clones one thread body two or three times with renamed locals,
the shape the encoder's symmetry breaking orders
(:mod:`repro.encoding.symmetry`).  In about half of them each clone also
owns one or two shared variables (``p<j>_<i>`` for clone ``i``), which
``main`` sets to equal values before the ``start``s and asserts the same
bound on after the ``join``s: clones up to an address renaming.  About
a third of these programs carry one planted asymmetry -- a constant
changed in one clone, ``main`` writing shared memory between two
``start``s, an assertion in one clone only, or (with owned variables)
one clone's variable set to another initial value -- which that
breaking must refuse.

Determinism: all randomness flows from one ``random.Random(seed)``; the
same seed always yields the identical program (this is what makes a
fuzzing finding reportable as just a seed).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.lang import ast

__all__ = ["GenConfig", "SYMMETRIC_EVERY", "generate_program", "generate_source"]

#: Every seed ``s`` with ``s % SYMMETRIC_EVERY == SYMMETRIC_EVERY - 1``
#: generates a symmetric program (see the module docstring).
SYMMETRIC_EVERY = 4


@dataclass(frozen=True)
class GenConfig:
    """Knobs bounding the generated programs.

    The defaults aim for programs small enough that the full engine
    matrix answers in well under a second each, yet rich enough to
    exercise locks, atomics, loops and nondeterminism together.
    """

    max_shared: int = 3
    max_locks: int = 2
    max_threads: int = 3
    max_stmts: int = 6
    max_depth: int = 2
    max_expr_depth: int = 2
    max_loop_iters: int = 3
    allow_loops: bool = True
    allow_atomics: bool = True
    allow_locks: bool = True
    allow_nondet: bool = True
    allow_fences: bool = True
    allow_assumes: bool = True
    #: Restrict generation to the Python-expressible fragment
    #: (:mod:`repro.pyfront.emit`): no atomics, fences, free-standing
    #: assumes or bare ``nondet()`` leaves -- instead a bounded-nondet
    #: statement shaped exactly like the translator's ``random.randint``
    #: idiom, so generated programs round-trip through Python emission.
    python_profile: bool = False


_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "+", "-", "*")
_BOOL_OPS = ("&&", "||")


class _Gen:
    def __init__(
        self, rng: random.Random, cfg: GenConfig, symmetric: bool = False
    ) -> None:
        self.rng = rng
        self.cfg = cfg
        self.symmetric = symmetric
        self.shared: List[str] = []
        self.locks: List[str] = []
        self._local_counter = 0

    # -- expressions ---------------------------------------------------

    def _leaf(self, locals_: List[str], allow_nondet: bool) -> ast.Expr:
        r = self.rng
        choices = ["lit", "lit"]
        if self.shared:
            choices += ["shared", "shared"]
        if locals_:
            choices += ["local", "local"]
        if allow_nondet and self.cfg.allow_nondet and not self.cfg.python_profile:
            choices.append("nondet")
        kind = r.choice(choices)
        if kind == "lit":
            return ast.IntLit(r.randint(0, 3))
        if kind == "shared":
            return ast.VarRef(r.choice(self.shared))
        if kind == "local":
            return ast.VarRef(r.choice(locals_))
        return ast.Nondet()

    def _expr(
        self, depth: int, locals_: List[str], allow_nondet: bool = True
    ) -> ast.Expr:
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return self._leaf(locals_, allow_nondet)
        op = r.choice(_ARITH_OPS)
        left = self._expr(depth - 1, locals_, allow_nondet)
        if op == "*":
            # Keep products small: one factor is always a tiny literal.
            right: ast.Expr = ast.IntLit(r.randint(0, 2))
        else:
            right = self._expr(depth - 1, locals_, allow_nondet)
        return ast.Binary(op, left, right)

    def _cond(self, locals_: List[str], allow_nondet: bool = True) -> ast.Expr:
        r = self.rng
        cmp_ = ast.Binary(
            r.choice(_CMP_OPS),
            self._expr(self.cfg.max_expr_depth - 1, locals_, allow_nondet),
            self._expr(self.cfg.max_expr_depth - 1, locals_, allow_nondet),
        )
        roll = r.random()
        if roll < 0.15:
            return ast.Unary("!", cmp_)
        if roll < 0.3:
            other = ast.Binary(
                r.choice(_CMP_OPS),
                self._expr(0, locals_, allow_nondet),
                self._expr(0, locals_, allow_nondet),
            )
            return ast.Binary(r.choice(_BOOL_OPS), cmp_, other)
        return cmp_

    # -- statements ----------------------------------------------------

    def _fresh_local(self) -> str:
        name = f"l{self._local_counter}"
        self._local_counter += 1
        return name

    def _assign(self, locals_: List[str], shared_ok: bool = True) -> ast.Stmt:
        r = self.rng
        targets: List[str] = []
        if shared_ok:
            targets += self.shared
        targets += locals_
        if not targets:
            return ast.Skip()
        return ast.Assign(
            r.choice(targets), self._expr(self.cfg.max_expr_depth, locals_)
        )

    def _atomic(self, locals_: List[str]) -> ast.Stmt:
        # Read-modify-write shape: one shared variable, one read, one
        # write (the fragment sema admits).  nondet() is forbidden inside.
        r = self.rng
        g = r.choice(self.shared)
        delta: ast.Expr = ast.IntLit(r.randint(1, 2))
        if locals_ and r.random() < 0.3:
            delta = ast.VarRef(r.choice(locals_))
        return ast.Atomic([ast.Assign(g, ast.Binary(r.choice("+-"), ast.VarRef(g), delta))])

    def _lock_region(
        self, locals_: List[str], depth: int, held_above: int, in_loop: bool
    ) -> List[ast.Stmt]:
        # Locks are always acquired in increasing index order and released
        # in region shape, so generated programs never deadlock.
        r = self.rng
        free = [i for i in range(len(self.locks)) if i > held_above]
        if not free:
            return [self._assign(locals_)]
        idx = r.choice(free)
        inner: List[ast.Stmt] = []
        for _ in range(r.randint(1, 2)):
            inner.extend(self._stmt(locals_, depth - 1, held_above=idx, in_loop=in_loop))
        return [ast.Lock(self.locks[idx])] + inner + [ast.Unlock(self.locks[idx])]

    def _loop(self, locals_: List[str], depth: int, held_above: int) -> List[ast.Stmt]:
        r = self.rng
        counter = self._fresh_local()
        bound = r.randint(1, self.cfg.max_loop_iters)
        body: List[ast.Stmt] = []
        for _ in range(r.randint(1, 2)):
            body.extend(self._stmt(locals_, depth - 1, held_above, in_loop=True))
        body.append(ast.Assign(counter, ast.Binary("+", ast.VarRef(counter), ast.IntLit(1))))
        return [
            ast.LocalDecl(counter, ast.IntLit(0)),
            ast.While(ast.Binary("<", ast.VarRef(counter), ast.IntLit(bound)), body),
        ]

    def _stmt(
        self,
        locals_: List[str],
        depth: int,
        held_above: int = -1,
        in_loop: bool = False,
    ) -> List[ast.Stmt]:
        """One generated statement (possibly a compound returning several)."""
        r = self.rng
        cfg = self.cfg
        choices = ["assign", "assign", "assign"]
        if depth > 0:
            choices.append("if")
            if cfg.allow_loops and not in_loop:
                choices.append("while")
            if cfg.allow_locks and self.locks:
                choices += ["lock", "lock"]
        if cfg.allow_atomics and self.shared and not cfg.python_profile:
            choices.append("atomic")
        if not in_loop:
            choices.append("decl")
            if cfg.python_profile and cfg.allow_nondet:
                choices.append("randint")
        if cfg.allow_assumes and not cfg.python_profile:
            choices.append("assume")
        if cfg.allow_fences and not cfg.python_profile:
            choices.append("fence")
        kind = r.choice(choices)
        if kind == "assign":
            return [self._assign(locals_)]
        if kind == "decl":
            name = self._fresh_local()
            init = self._expr(cfg.max_expr_depth, locals_)
            locals_.append(name)
            return [ast.LocalDecl(name, init)]
        if kind == "randint":
            # The translator's random.randint shape, verbatim -- the
            # Python emitter pattern-matches it back to a randint call.
            name = self._fresh_local()
            lo = r.randint(0, 2)
            hi = lo + r.randint(0, 3)
            locals_.append(name)
            return [
                ast.LocalDecl(name, ast.Nondet()),
                ast.Assume(
                    ast.Binary(
                        "&&",
                        ast.Binary(">=", ast.VarRef(name), ast.IntLit(lo)),
                        ast.Binary("<=", ast.VarRef(name), ast.IntLit(hi)),
                    )
                ),
            ]
        if kind == "if":
            # The condition must be generated *before* the bodies: nested
            # generation may declare new locals, which the condition (checked
            # first by sema, executed first at runtime) must not reference.
            cond = self._cond(locals_)
            then_body: List[ast.Stmt] = []
            for _ in range(r.randint(1, 2)):
                then_body.extend(self._stmt(locals_, depth - 1, held_above, in_loop=True))
            else_body: List[ast.Stmt] = []
            if r.random() < 0.5:
                else_body.extend(self._stmt(locals_, depth - 1, held_above, in_loop=True))
            return [ast.If(cond, then_body, else_body)]
        if kind == "while":
            return self._loop(locals_, depth, held_above)
        if kind == "lock":
            return self._lock_region(locals_, depth, held_above, in_loop)
        if kind == "atomic":
            return [self._atomic(locals_)]
        if kind == "assume":
            # Bias towards satisfiable assumptions so executions survive.
            if r.random() < 0.8:
                return [ast.Assume(ast.Binary(">=", self._expr(1, locals_), ast.IntLit(0)))]
            return [ast.Assume(self._cond(locals_))]
        return [ast.Fence()]

    def _thread_body(self) -> List[ast.Stmt]:
        r = self.rng
        locals_: List[str] = []
        body: List[ast.Stmt] = []
        for _ in range(r.randint(0, 2)):
            name = self._fresh_local()
            body.append(ast.LocalDecl(name, self._expr(1, locals_)))
            locals_.append(name)
        n = r.randint(1, self.cfg.max_stmts)
        while sum(1 for _ in body) < n + 2 and len(body) < self.cfg.max_stmts + 4:
            body.extend(self._stmt(locals_, self.cfg.max_depth))
            if len(body) >= n:
                break
        if r.random() < 0.2 and self.shared:
            body.append(ast.Assert(self._cond(locals_, allow_nondet=False)))
        return body

    # -- symmetric threads ----------------------------------------------

    def _clones(self, owned: int) -> List[ast.ThreadDef]:
        """Two or three threads running one body, each with its own
        locals and, when ``owned``, its own ``owned`` shared variables:
        clone ``i`` uses ``p<j>_<i>`` where the first uses ``p<j>_0``."""
        r = self.rng
        common = self.shared
        self.shared = common + [f"p{j}_0" for j in range(owned)]
        body = self._thread_body()
        self.shared = common
        used = {n.name for n in _nodes(body) if isinstance(n, (ast.VarRef, ast.Assign))}
        for j in range(owned):
            v = f"p{j}_0"
            if v not in used:
                bump = ast.Binary("+", ast.VarRef(v), ast.IntLit(r.randint(1, 2)))
                body.insert(r.randint(0, len(body)), ast.Assign(v, bump))
        declared = sorted(
            {n.name for n in _nodes(body) if isinstance(n, ast.LocalDecl)}
        )
        threads = [ast.ThreadDef("t0", body)]
        for i in range(1, min(r.randint(2, 3), self.cfg.max_threads)):
            names = {name: self._fresh_local() for name in declared}
            names.update((f"p{j}_0", f"p{j}_{i}") for j in range(owned))
            threads.append(ast.ThreadDef(f"t{i}", _copied(body, names, {})))
        return threads

    def _bump_constant(self, threads: List[ast.ThreadDef]) -> bool:
        """Change one integer literal of the last thread; False if it has
        none."""
        last = threads[-1]
        lits = [n for n in _nodes(last.body) if isinstance(n, ast.IntLit)]
        if not lits:
            return False
        lit = self.rng.choice(lits)
        swap = {id(lit): ast.IntLit(lit.value + 1)}
        threads[-1] = ast.ThreadDef(last.name, _copied(last.body, {}, swap))
        return True

    # -- whole program -------------------------------------------------

    def program(self) -> ast.Program:
        r = self.rng
        cfg = self.cfg
        n_shared = r.randint(1, cfg.max_shared)
        self.shared = [f"g{i}" for i in range(n_shared)]
        n_locks = r.randint(0, cfg.max_locks) if cfg.allow_locks else 0
        self.locks = [f"m{i}" for i in range(n_locks)]
        globals_ = [ast.GlobalDecl(g, r.randint(0, 2)) for g in self.shared]
        globals_ += [ast.GlobalDecl(m, 0, is_lock=True) for m in self.locks]

        plant = None
        owned = 0
        if self.symmetric:
            if r.random() < 0.5:
                owned = r.randint(1, 2)
            threads = self._clones(owned)
            if r.random() < 1 / 3:
                plants = ["constant", "main-write", "assert"]
                plant = r.choice(plants + ["init"] if owned else plants)
                if plant == "constant" and not self._bump_constant(threads):
                    plant = "assert"
                if plant == "assert":
                    body = threads[-1].body
                    locals_ = [s.name for s in body if isinstance(s, ast.LocalDecl)]
                    body.append(ast.Assert(self._cond(locals_, False)))
        else:
            n_threads = r.randint(1, cfg.max_threads)
            threads = [
                ast.ThreadDef(f"t{i}", self._thread_body())
                for i in range(n_threads)
            ]
        # Owned variables: equal initial values, set again by main before
        # the starts (the last clone's differently for an "init" plant).
        owned_vars = [
            [f"p{j}_{i}" for i in range(len(threads))] for j in range(owned)
        ]
        main_body: List[ast.Stmt] = []
        for clones in owned_vars:
            value = r.randint(0, 2)
            globals_ += [ast.GlobalDecl(v, value) for v in clones]
            main_body += [ast.Assign(v, ast.IntLit(value)) for v in clones]
        if plant == "init":
            main_body[-1] = ast.Assign(
                main_body[-1].name, ast.IntLit(main_body[-1].value.value + 1)
            )

        locals_: List[str] = []
        # Occasionally do some main-thread work before the starts.
        for _ in range(r.randint(0, 1)):
            main_body.extend(self._stmt(locals_, 1))
        for i, t in enumerate(threads):
            main_body.append(ast.Start(t.name))
            if plant == "main-write" and i == 0:
                main_body.append(
                    ast.Assign(
                        r.choice(self.shared + [v[1] for v in owned_vars]),
                        ast.IntLit(r.randint(0, 3)),
                    )
                )
            elif not self.symmetric and r.random() < 0.25:
                main_body.extend(self._stmt(locals_, 0))
        join_order = list(threads)
        r.shuffle(join_order)
        for t in join_order:
            main_body.append(ast.Join(t.name))
        # The property: one or two assertions over the final shared state;
        # over owned variables, the same assertion for every clone's.
        for clones in owned_vars:
            op, bound = r.choice(_CMP_OPS), r.randint(0, 6)
            for v in clones:
                main_body.append(
                    ast.Assert(ast.Binary(op, ast.VarRef(v), ast.IntLit(bound)))
                )
        for _ in range(r.randint(1, 2) if not owned else r.randint(0, 1)):
            g = r.choice(self.shared)
            roll = r.random()
            if roll < 0.5:
                cond: ast.Expr = ast.Binary(
                    r.choice(_CMP_OPS), ast.VarRef(g), ast.IntLit(r.randint(0, 6))
                )
            elif roll < 0.75 and len(self.shared) > 1:
                h = r.choice([s for s in self.shared if s != g])
                cond = ast.Binary(r.choice(_CMP_OPS), ast.VarRef(g), ast.VarRef(h))
            else:
                cond = self._cond(locals_ + [], allow_nondet=False)
            main_body.append(ast.Assert(cond))
        main = ast.ThreadDef("main", main_body)
        return ast.Program(globals_, threads, main)


#: Nodes whose ``name`` may be a local (``Lock``/``Unlock`` name locks).
_NAMES_A_LOCAL = (ast.VarRef, ast.LocalDecl, ast.Assign)


def _nodes(node):
    """Every expression and statement under ``node``, in source order."""
    if isinstance(node, list):
        for n in node:
            yield from _nodes(n)
    elif isinstance(node, (ast.Expr, ast.Stmt)):
        yield node
        for f in dataclasses.fields(node):
            yield from _nodes(getattr(node, f.name))


def _copied(node, names: Dict[str, str], swap: Dict[int, ast.Expr]):
    """A deep copy of an AST node (or list of nodes) with the locals of
    ``names`` renamed and each node whose ``id`` is in ``swap`` replaced."""
    if isinstance(node, list):
        return [_copied(n, names, swap) for n in node]
    if not isinstance(node, (ast.Expr, ast.Stmt)):
        return node
    if id(node) in swap:
        return swap[id(node)]
    fields = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if f.name == "name" and isinstance(node, _NAMES_A_LOCAL):
            value = names.get(value, value)
        else:
            value = _copied(value, names, swap)
        fields[f.name] = value
    return type(node)(**fields)


def generate_program(seed: int, config: Optional[GenConfig] = None) -> ast.Program:
    """Generate the (deterministic) program of ``seed``."""
    config = config or GenConfig()
    symmetric = (
        seed % SYMMETRIC_EVERY == SYMMETRIC_EVERY - 1
        and config.max_threads >= 2
        and not config.python_profile
    )
    gen = _Gen(random.Random(seed), config, symmetric)
    program = gen.program()
    # Validity is part of the generator's contract -- catch drift here,
    # not as noise in the differential harness.
    from repro.lang.sema import check_program

    check_program(program)
    return program


def generate_source(seed: int, config: Optional[GenConfig] = None) -> str:
    """Generate the program of ``seed`` as normalized source text."""
    from repro.lang.unparse import unparse

    return unparse(generate_program(seed, config))
