"""The repro-lint rule set: the repo's correctness contracts as AST checks.

Each rule codifies one invariant that the hypothesis suites defend
dynamically (docs/INVARIANTS.md maps rule -> contract -> suite):

- RL001 digest-determinism: digest/canonicalization code must be
  bit-reproducible across processes and interpreter runs.
- RL002 atomic-write discipline: store/checkpoint writes must stage to
  a tmp path and commit with ``os.replace`` (first-writer-wins).
- RL003 spawn-safety: sweep-worker entry points must stay picklable
  under the spawn start method.
- RL004 memmap hygiene: chunked loops over disk-backed arrays must not
  materialize hidden copies.
- RL005 SoA dtype discipline: batched-engine columns are explicit-dtype
  constructions, never bare float64 defaults.
- RL006 no scalar loops: ``*/batched.py`` modules must not walk
  per-request data in Python.

Scope patterns in :data:`DEFAULT_SCOPES` name the files where each
contract actually holds; the tests inject synthetic configs instead.
"""

from __future__ import annotations

import ast
import fnmatch
import re

from .core import (
    FileContext,
    Insertion,
    LintConfig,
    Rule,
    Violation,
    dotted_name,
)

# ---------------------------------------------------------------------------
# RL001: digest determinism
# ---------------------------------------------------------------------------

#: call prefixes that read global mutable / wall-clock state
_RL001_BANNED_PREFIXES = (
    "time.",
    "random.",
    "np.random.",
    "numpy.random.",
    "secrets.",
    "uuid.",
)
_RL001_BANNED_EXACT = frozenset({
    "os.urandom",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
})
#: bare builtins whose value depends on the interpreter run
_RL001_BANNED_BARE = frozenset({"hash", "id", "globals", "vars"})

_UNORDERED_METHODS = frozenset({"items", "keys", "values"})


def _is_unordered_iter(node: ast.expr) -> str | None:
    """Why iterating ``node`` is unordered, or None when it is fine."""
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _UNORDERED_METHODS):
            return f".{func.attr}() iteration order"
        name = dotted_name(func)
        if name in ("set", "frozenset"):
            return f"{name}() iteration order"
    if isinstance(node, ast.Set):
        return "set-literal iteration order"
    if isinstance(node, ast.SetComp):
        return "set-comprehension iteration order"
    return None


def _sorted_wrap_fix(node: ast.expr) -> tuple[Insertion, ...] | None:
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    return (
        Insertion(node.lineno, node.col_offset, "sorted("),
        Insertion(end_line, end_col, ")"),
    )


class DigestDeterminism(Rule):
    code = "RL001"
    name = "digest-determinism"
    description = (
        "digest/canonicalization code must not read global mutable "
        "state (time/random/uuid), iterate sets or dict views "
        "unsorted, or hash repr() output without a justified "
        "suppression"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> list[Violation]:
        assert ctx.tree is not None
        name_re = re.compile(config.digest_name_re)
        extras: set[str] = set()
        for pattern, names in config.digest_extra_functions.items():
            if fnmatch.fnmatch(ctx.rel_path, pattern):
                extras.update(names)

        out: list[Violation] = []
        seen: set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (name_re.search(node.name) or node.name in extras):
                continue
            self._check_function(ctx, node, out, seen)
        return out

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.AST,
        out: list[Violation],
        seen: set[int],
    ) -> None:
        # a genexp/comprehension directly inside sorted() is sanctioned:
        # the wrapper discards the unordered iteration order anyway
        sanctioned: set[int] = set()
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func) == "sorted"):
                for arg in node.args:
                    sanctioned.add(id(arg))
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                        ast.SetComp)):
                        sanctioned.add(id(arg.generators[0].iter))

        for node in ast.walk(func):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.Call):
                self._check_call(ctx, node, out)
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if id(it) in sanctioned:
                    continue
                why = _is_unordered_iter(it)
                if why is not None:
                    out.append(ctx.violation(
                        self.code, it,
                        f"{why} is not deterministic in digest scope; "
                        "wrap the iterable in sorted(...)",
                        fix=_sorted_wrap_fix(it),
                    ))

    def _check_call(
        self, ctx: FileContext, node: ast.Call, out: list[Violation]
    ) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        if name == "repr" and isinstance(node.func, ast.Name):
            out.append(ctx.violation(
                self.code, node,
                "repr() output feeds a digest; only canonical for "
                "primitives -- justify with a suppression or "
                "canonicalize explicitly",
            ))
            return
        banned = (
            name in _RL001_BANNED_EXACT
            or (isinstance(node.func, ast.Name)
                and name in _RL001_BANNED_BARE)
            or any(name.startswith(p) for p in _RL001_BANNED_PREFIXES)
        )
        if banned:
            out.append(ctx.violation(
                self.code, node,
                f"call to {name}() reads global mutable state; digest "
                "inputs must be bit-reproducible across runs",
            ))


# ---------------------------------------------------------------------------
# RL002: atomic-write discipline
# ---------------------------------------------------------------------------

_TEMPFILE_FACTORIES = frozenset({
    "mkdtemp", "mkstemp", "TemporaryDirectory", "NamedTemporaryFile",
    "TemporaryFile",
})


def _last_part(name: str | None) -> str:
    return (name or "").rsplit(".", 1)[-1]


class AtomicWrites(Rule):
    code = "RL002"
    name = "atomic-write-discipline"
    description = (
        "writes under store/checkpoint roots must stage to a tmp path "
        "and commit via os.replace (first-writer-wins); direct writes "
        "to final paths race with concurrent workers"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> list[Violation]:
        assert ctx.tree is not None
        safe_re = re.compile(config.safe_target_re, re.IGNORECASE)
        safe_names = self._collect_safe_names(ctx.tree, safe_re)
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._check_call(ctx, node, safe_re, safe_names, out)
        return out

    # -- safety of a target expression ---------------------------------
    def _is_safe(
        self,
        target: ast.expr,
        safe_re: re.Pattern[str],
        safe_names: set[str],
    ) -> bool:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                if node.id in safe_names or safe_re.search(node.id):
                    return True
            elif isinstance(node, ast.Attribute):
                if safe_re.search(node.attr):
                    return True
            elif isinstance(node, ast.Constant):
                if (isinstance(node.value, str)
                        and safe_re.search(node.value)):
                    return True
        return False

    def _collect_safe_names(
        self, tree: ast.Module, safe_re: re.Pattern[str]
    ) -> set[str]:
        safe: set[str] = set()
        # fixpoint over assignment chains (x = tmpdir; y = x / "part")
        for _ in range(3):
            grew = False
            for node in ast.walk(tree):
                name: str | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    name, value = node.targets[0].id, node.value
                elif (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    name, value = node.target.id, node.value
                elif isinstance(node, ast.NamedExpr) \
                        and isinstance(node.target, ast.Name):
                    name, value = node.target.id, node.value
                elif isinstance(node, ast.withitem) \
                        and isinstance(node.optional_vars, ast.Name):
                    name = node.optional_vars.id
                    expr = node.context_expr
                    if isinstance(expr, ast.Call):
                        fn = _last_part(dotted_name(expr.func))
                        if fn == "open" and expr.args:
                            # `with open(t, "w") as f`: f inherits t's
                            # safety (the open call is checked separately)
                            value = expr.args[0]
                        elif fn in _TEMPFILE_FACTORIES:
                            if name not in safe:
                                safe.add(name)
                                grew = True
                            continue
                if name is None or value is None or name in safe:
                    continue
                is_safe = self._is_safe(value, safe_re, safe)
                if isinstance(value, ast.Call):
                    fn = _last_part(dotted_name(value.func))
                    if fn in _TEMPFILE_FACTORIES:
                        is_safe = True
                if is_safe:
                    safe.add(name)
                    grew = True
            if not grew:
                break
        return safe

    # -- write-site detection ------------------------------------------
    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        safe_re: re.Pattern[str],
        safe_names: set[str],
        out: list[Violation],
    ) -> None:
        name = dotted_name(node.func)
        last = _last_part(name)
        target: ast.expr | None = None
        what = None

        if last == "open" and not isinstance(node.func, ast.Attribute) \
                and node.args:
            mode = self._mode_arg(node, position=1)
            if mode is _NON_LITERAL or (
                    mode and any(ch in mode for ch in "wax+")):
                target, what = node.args[0], "open(..., write mode)"
        elif isinstance(node.func, ast.Attribute) and last == "open":
            mode = self._mode_arg(node, position=0)
            if mode is not None and mode is not _NON_LITERAL \
                    and any(ch in mode for ch in "wax+"):
                target, what = node.func.value, ".open(write mode)"
        elif name in ("np.save", "numpy.save", "np.savez", "numpy.savez",
                      "np.savez_compressed", "numpy.savez_compressed") \
                and node.args:
            target, what = node.args[0], last
        elif last == "open_memmap":
            mode = None
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = str(kw.value.value)
            if mode is not None and any(ch in mode for ch in "wx") \
                    and node.args:
                target, what = node.args[0], "open_memmap(mode='w+')"
        elif isinstance(node.func, ast.Attribute) \
                and last in ("write_text", "write_bytes"):
            target, what = node.func.value, f".{last}()"
        elif isinstance(node.func, ast.Attribute) and last == "tofile" \
                and node.args:
            target, what = node.args[0], ".tofile()"
        elif name == "json.dump" and len(node.args) >= 2:
            target, what = node.args[1], "json.dump()"

        if target is None:
            return
        if self._is_safe(target, safe_re, safe_names):
            return
        out.append(ctx.violation(
            self.code, node,
            f"{what} targets a non-staging path; write to a tmp "
            "sibling and commit with os.replace",
        ))

    @staticmethod
    def _mode_arg(node: ast.Call, position: int) -> object:
        for kw in node.keywords:
            if kw.arg == "mode":
                if isinstance(kw.value, ast.Constant):
                    return str(kw.value.value)
                return _NON_LITERAL
        if len(node.args) > position:
            arg = node.args[position]
            if isinstance(arg, ast.Constant):
                return str(arg.value)
            return _NON_LITERAL
        return None


_NON_LITERAL = object()


# ---------------------------------------------------------------------------
# RL003: spawn safety
# ---------------------------------------------------------------------------

_SUBMIT_LIKE = frozenset({
    "submit", "map", "starmap", "imap", "imap_unordered", "apply",
    "apply_async", "map_async", "Process", "Pool", "ProcessPoolExecutor",
})
_CALLABLE_KWARGS = frozenset({"target", "initializer", "func"})
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})


class SpawnSafety(Rule):
    code = "RL003"
    name = "spawn-safety"
    description = (
        "sweep workers use the spawn start method: worker entry points "
        "and defaults must be module-level picklable objects (no "
        "lambdas, no fork-only contexts, no mutable defaults)"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> list[Violation]:
        assert ctx.tree is not None
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                for default in list(args.defaults) + [
                        d for d in args.kw_defaults if d is not None]:
                    bad = None
                    if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                        bad = "mutable literal"
                    elif isinstance(default, ast.Lambda):
                        bad = "lambda"
                    elif isinstance(default, ast.Call) and \
                            dotted_name(default.func) in _MUTABLE_FACTORIES:
                        bad = f"{dotted_name(default.func)}() call"
                    if bad:
                        out.append(ctx.violation(
                            self.code, default,
                            f"{bad} as a parameter default is shared "
                            "mutable state and breaks spawn pickling; "
                            "default to None and build inside",
                        ))
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            last = _last_part(name)
            if last in ("get_context", "set_start_method"):
                method = node.args[0] if node.args else None
                if not (isinstance(method, ast.Constant)
                        and method.value == "spawn"):
                    out.append(ctx.violation(
                        self.code, node,
                        f"{last}() must request the 'spawn' start method "
                        "explicitly (fork inherits unpicklable state)",
                    ))
            elif name in ("multiprocessing.Pool", "mp.Pool",
                          "multiprocessing.Process", "mp.Process"):
                out.append(ctx.violation(
                    self.code, node,
                    f"direct {name}() uses the platform-default start "
                    "method; go through get_context('spawn')",
                ))
            if last in _SUBMIT_LIKE:
                for arg in node.args:
                    if isinstance(arg, ast.Lambda):
                        out.append(ctx.violation(
                            self.code, arg,
                            f"lambda passed to {last}() cannot be "
                            "pickled by spawn workers; use a "
                            "module-level function",
                        ))
            for kw in node.keywords:
                if kw.arg in _CALLABLE_KWARGS \
                        and isinstance(kw.value, ast.Lambda):
                    out.append(ctx.violation(
                        self.code, kw.value,
                        f"lambda as {kw.arg}= cannot be pickled by "
                        "spawn workers; use a module-level function",
                    ))
        return out


# ---------------------------------------------------------------------------
# RL004: memmap hygiene
# ---------------------------------------------------------------------------

_COPYING_FUNCS = frozenset({
    "np.array", "numpy.array", "np.copy", "numpy.copy",
    "np.ascontiguousarray", "numpy.ascontiguousarray",
})


class MemmapHygiene(Rule):
    code = "RL004"
    name = "memmap-hygiene"
    description = (
        "chunked loops over memmap-backed tiles must not materialize "
        "hidden copies (np.array/np.copy/.copy()/ascontiguousarray); "
        "a deliberate bounded copy needs a justified suppression"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> list[Violation]:
        assert ctx.tree is not None
        out: list[Violation] = []
        seen: set[int] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if id(node) in seen or not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                what: str | None = None
                if name in _COPYING_FUNCS:
                    what = f"{name}(...)"
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "copy"
                        and not node.args and not node.keywords
                        and dotted_name(node.func.value) != "copy"):
                    what = ".copy()"
                if what is None:
                    continue
                seen.add(id(node))
                out.append(ctx.violation(
                    self.code, node,
                    f"{what} inside a chunked loop materializes a copy "
                    "of (possibly memmap-backed) data per iteration; "
                    "hoist it or justify with a suppression",
                ))
        return out


# ---------------------------------------------------------------------------
# RL005: SoA dtype discipline
# ---------------------------------------------------------------------------

_DTYPE_CTORS = frozenset({"zeros", "ones", "empty", "full", "arange"})
_DTYPE_FIXABLE = frozenset({"zeros", "ones", "empty"})


class SoADtypeDiscipline(Rule):
    code = "RL005"
    name = "soa-dtype-discipline"
    description = (
        "batched-engine column/floor arrays must carry an explicit "
        "dtype: bare np.zeros(n) float64 defaults silently upcast "
        "int64 segment math (reduceat/bincount paths)"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> list[Violation]:
        assert ctx.tree is not None
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or "." not in name:
                continue
            prefix, _, ctor = name.rpartition(".")
            if prefix not in ("np", "numpy") or ctor not in _DTYPE_CTORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            fix: tuple[Insertion, ...] | None = None
            end_line = getattr(node, "end_lineno", None)
            end_col = getattr(node, "end_col_offset", None)
            if (ctor in _DTYPE_FIXABLE and end_line is not None
                    and end_col is not None and not any(
                        kw.arg is None for kw in node.keywords)):
                # make the float64 default explicit (behavior-preserving;
                # a wrong dtype then fails review by being visible)
                fix = (Insertion(end_line, end_col - 1,
                                 f", dtype={prefix}.float64"),)
            out.append(ctx.violation(
                self.code, node,
                f"{name}() without an explicit dtype defaults to "
                "float64; SoA columns must pin their dtype",
                fix=fix,
            ))
        return out


# ---------------------------------------------------------------------------
# RL006: no scalar loops in batched modules
# ---------------------------------------------------------------------------

def _structural_iter(node: ast.expr) -> bool:
    """True when iterating ``node`` walks structure, not per-request data.

    Structure means literals, ALL_CAPS schema constants, or thin
    wrappers (zip/enumerate/sorted/...) over those; ``range()`` with
    literal int bounds is a fixed-size setup loop.
    """
    if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict,
                         ast.Constant)):
        return True
    if isinstance(node, ast.Name):
        return node.id.strip("_").isupper()
    if isinstance(node, ast.Attribute):
        return node.attr.strip("_").isupper()
    if isinstance(node, ast.Starred):
        return _structural_iter(node.value)
    if isinstance(node, ast.Call):
        last = _last_part(dotted_name(node.func))
        if last == "zip":
            return any(_structural_iter(a) for a in node.args)
        if last in ("enumerate", "sorted", "reversed", "tuple", "list"):
            return bool(node.args) and _structural_iter(node.args[0])
        if last == "range":
            return bool(node.args) and all(
                isinstance(a, ast.Constant) and isinstance(a.value, int)
                for a in node.args
            )
        if last in _UNORDERED_METHODS and isinstance(node.func,
                                                     ast.Attribute):
            return _structural_iter(node.func.value)
    return False


class NoScalarLoops(Rule):
    code = "RL006"
    name = "no-scalar-loops"
    description = (
        "batched modules must not iterate per-request/per-op data in "
        "Python; loops are only allowed over structure (schema "
        "constants, literals) or in allowlisted setup functions"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> list[Violation]:
        assert ctx.tree is not None
        out: list[Violation] = []
        self._walk(ctx, ctx.tree, None, config, out)
        return out

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        func_name: str | None,
        config: LintConfig,
        out: list[Violation],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            inner = func_name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif func_name not in config.loop_setup_functions:
                if isinstance(child, (ast.For, ast.AsyncFor)):
                    if not _structural_iter(child.iter):
                        out.append(ctx.violation(
                            self.code, child,
                            "scalar Python loop over non-structural "
                            "iterable in a batched module; vectorize "
                            "or justify with a suppression",
                        ))
                elif isinstance(child, ast.While):
                    out.append(ctx.violation(
                        self.code, child,
                        "while-loop in a batched module is scalar "
                        "control flow; vectorize or justify with a "
                        "suppression",
                    ))
            self._walk(ctx, child, inner, config, out)


# ---------------------------------------------------------------------------
# Default configuration: where each contract holds in this repo
# ---------------------------------------------------------------------------

DEFAULT_SCOPES: dict[str, tuple[str, ...]] = {
    # digest/canonicalization machinery: cell digests, replay memo keys,
    # tile-store content digests, cache snapshot hooks
    "RL001": (
        "src/repro/experiments/runner.py",
        "src/repro/experiments/parallel.py",
        "src/repro/cache/batched.py",
        "src/repro/cache/base.py",
        "src/repro/core/memory_path.py",
        "src/repro/graph/tilestore.py",
    ),
    # first-writer-wins stores, checkpoint roots and the kernel build cache
    "RL002": (
        "src/repro/graph/tilestore.py",
        "src/repro/graph/graphio.py",
        "src/repro/experiments/parallel.py",
        "src/repro/core/_kernel.py",
    ),
    # CellSpec-reachable code shipped to spawn workers
    "RL003": (
        "src/repro/experiments/runner.py",
        "src/repro/experiments/parallel.py",
    ),
    # chunked paths over memmap-backed tiles/CSR columns
    "RL004": (
        "src/repro/graph/tilestore.py",
        "src/repro/graph/graphio.py",
        "src/repro/graph/partition.py",
        "src/repro/graph/datasets.py",
        "src/repro/core/memory_path.py",
    ),
    # SoA column constructions feeding segment math
    "RL005": (
        "src/repro/dram/engine/batched.py",
        "src/repro/dram/engine/commands.py",
        "src/repro/dram/fim_batch.py",
        "src/repro/cache/batched.py",
        "src/repro/cache/base.py",
    ),
    # vectorized engines: no per-request Python walks
    "RL006": (
        "**/batched.py",
    ),
}

#: functions in digest scope whose names don't match the digest regex
DEFAULT_DIGEST_EXTRAS: dict[str, tuple[str, ...]] = {
    # resolve_cell assembles the canonical cell digest
    "src/repro/experiments/runner.py": ("resolve_cell",),
    # BatchReplayMemo.key + the memo-key part assembly in _run_batch
    "src/repro/core/memory_path.py": ("key", "_run_batch"),
}

#: batched-module functions whose loops are setup, not per-request work
DEFAULT_LOOP_SETUP = ("__init__", "_fim_steps")


def default_config() -> LintConfig:
    """The shipped configuration encoding this repo's contracts."""
    return LintConfig(
        scopes=dict(DEFAULT_SCOPES),
        digest_extra_functions=dict(DEFAULT_DIGEST_EXTRAS),
        loop_setup_functions=DEFAULT_LOOP_SETUP,
    )


def make_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, in code order."""
    return [
        DigestDeterminism(),
        AtomicWrites(),
        SpawnSafety(),
        MemmapHygiene(),
        SoADtypeDiscipline(),
        NoScalarLoops(),
    ]


__all__ = [
    "AtomicWrites",
    "DEFAULT_DIGEST_EXTRAS",
    "DEFAULT_LOOP_SETUP",
    "DEFAULT_SCOPES",
    "DigestDeterminism",
    "MemmapHygiene",
    "NoScalarLoops",
    "SoADtypeDiscipline",
    "SpawnSafety",
    "default_config",
    "make_rules",
]
