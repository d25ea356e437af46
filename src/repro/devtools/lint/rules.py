"""AST rules of the QF linter.

Each rule has a stable code (``QF001``…) and a named alias usable in
suppression comments (``# qf: exact-zero``). The rules encode numerical
invariants this codebase depends on — the kind of defect that produces
a *wrong spectrum*, not a crash:

QF001 float-equality     ``== / !=`` against a float literal. Physics
                         quantities carry FD and convergence noise;
                         exact comparison is almost always a tolerance
                         bug. Intentional exact-zero guards (screening
                         on analytically-zero Hermite coefficients,
                         zero-norm starts) are annotated
                         ``# qf: exact-zero``.
QF002 einsum-subscripts  Malformed or operand-inconsistent literal
                         ``np.einsum`` subscripts (transpose typos,
                         wrong operand counts, output labels absent
                         from inputs) and non-literal subscript strings
                         that cannot be validated statically.
QF003 mutable-default    Mutable default argument (list/dict/set
                         literals or constructors) — state leaks
                         between calls, deadly in a worker that is
                         reused across fragments.
QF004 broad-except       Bare ``except`` / ``except Exception`` whose
                         body never re-raises: in the executor path
                         this swallows worker errors and silently drops
                         fragments from the assembled spectrum.
QF005 unseeded-rng       Legacy global-state ``np.random.*`` calls, or
                         ``default_rng()`` without a seed, outside
                         tests — both break cross-process determinism.
QF006 dtype-downcast     ``np.float32`` / ``np.float16`` /
                         ``np.complex64`` literals, ``dtype=`` of the
                         same, or ``.astype`` to them: silent precision
                         loss below the 1e-10 reproducibility bar.
QF007 missing-all        A non-trivial package ``__init__.py`` without
                         ``__all__`` — the public API boundary must be
                         explicit.
QF008 raw-clock          Direct ``time.perf_counter()`` /
                         ``perf_counter_ns()`` calls outside the
                         sanctioned timing layers
                         (:mod:`repro.utils.timing`, :mod:`repro.obs`).
                         Ad-hoc clock reads bypass the tracer spans
                         (and ``Stopwatch``, for times that must exist
                         untraced), so their wall time is invisible to
                         the span trace and the manifest's
                         ``phase_wall_s``.
QF009 shell-loop         A python-level ``for`` loop over shells /
                         primitive pairs inside :mod:`repro.integrals`.
                         Per-pair python is the overhead the batched
                         kernel layer (``repro.integrals.batched``)
                         exists to remove; new hot-path loops belong
                         there as array operations. Sanctioned loops
                         (element-budget chunks, class-block loops with
                         vectorized bodies, O(nshells) prepasses) are
                         annotated ``# qf: shell-loop``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["Finding", "RULES", "ALIASES", "RuleVisitor"]


@dataclass(frozen=True)
class Finding:
    """One linter hit, stable enough to assert against in tests."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: code -> (alias, one-line description)
RULES = {
    "QF001": ("exact-zero",
              "float equality against a literal on a physics quantity"),
    "QF002": ("einsum", "invalid or unvalidated np.einsum subscripts"),
    "QF003": ("mutable-default", "mutable default argument"),
    "QF004": ("broad-except",
              "overbroad except without re-raise can swallow worker errors"),
    "QF005": ("unseeded-rng", "unseeded / global-state numpy RNG"),
    "QF006": ("dtype-downcast", "silent dtype downcast below float64"),
    "QF007": ("missing-all", "public package __init__ without __all__"),
    "QF008": ("raw-clock",
              "direct perf_counter call outside repro.utils.timing / "
              "repro.obs"),
    "QF009": ("shell-loop",
              "python-level loop over shells/primitives in repro.integrals"),
}

#: alias -> code (suppression comments accept either form)
ALIASES = {alias: code for code, (alias, _) in RULES.items()}

_LEGACY_RNG_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "SFC64", "MT19937", "BitGenerator",
}
_DOWNCAST_NAMES = {"float32", "float16", "complex64"}
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set"}
_RAW_CLOCK_NAMES = {"perf_counter", "perf_counter_ns"}
#: path fragments whose files ARE the sanctioned timing layer
_RAW_CLOCK_EXEMPT = ("utils/timing.py", "repro/obs/")
#: iterable identifiers that mark a loop as per-shell / per-primitive
_SHELL_LOOP_NAMES = {
    "shells", "exps", "coefs", "prims", "primitives", "plist", "pairs",
    "npair", "nprim",
}
#: path fragment gating QF009 to the integrals hot path
_SHELL_LOOP_PATH = "integrals"


def _raw_clock_exempt(path: str) -> bool:
    norm = path.replace("\\", "/")
    return any(frag in norm for frag in _RAW_CLOCK_EXEMPT)


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain ('np.random.rand')."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _validate_einsum_subscripts(spec: str, n_operands: int | None
                                ) -> str | None:
    """Return an error message for a literal einsum subscript, or None."""
    s = spec.replace(" ", "")
    if s.count("->") > 1:
        return f"subscripts {spec!r} contain more than one '->'"
    lhs, _, out = s.partition("->")
    explicit = "->" in s
    inputs = lhs.split(",")
    in_labels: set[str] = set()
    for term in inputs:
        if term.count("...") > 1:
            return f"operand spec {term!r} repeats '...'"
        letters = term.replace("...", "")
        bad = [c for c in letters if not c.isalpha()]
        if bad:
            return f"subscripts {spec!r} contain invalid characters {bad}"
        in_labels.update(letters)
    if n_operands is not None and n_operands != len(inputs):
        return (f"subscripts {spec!r} name {len(inputs)} operands "
                f"but the call passes {n_operands}")
    if explicit:
        out_letters = out.replace("...", "")
        if any(not c.isalpha() for c in out_letters):
            return f"output spec {out!r} contains invalid characters"
        dup = {c for c in out_letters if out_letters.count(c) > 1}
        if dup:
            return (f"output spec {out!r} repeats "
                    f"{sorted(dup)} — einsum output labels must be unique")
        missing = sorted(set(out_letters) - in_labels)
        if missing:
            return (f"output labels {missing} of {spec!r} never appear in "
                    "an input operand (transpose/rename typo?)")
    return None


class RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor producing raw findings (pre-suppression)."""

    def __init__(self, path: str, is_package_init: bool = False):
        self.path = path
        self.is_package_init = is_package_init
        self.findings: list[Finding] = []

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))

    # -- QF001: float equality --------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in [node.left, *node.comparators]:
                if (isinstance(operand, ast.Constant)
                        and type(operand.value) is float):
                    self._emit(
                        node, "QF001",
                        f"equality against float literal {operand.value!r}; "
                        "use a tolerance, or annotate an intentional guard "
                        "with '# qf: exact-zero'",
                    )
                    break
        self.generic_visit(node)

    # -- QF003: mutable defaults ------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set,
                          ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
            )
            if mutable:
                self._emit(
                    default, "QF003",
                    "mutable default argument — shared across calls; "
                    "default to None and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- QF004: overbroad except -------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None
        if isinstance(node.type, ast.Name):
            broad = node.type.id in ("Exception", "BaseException")
        elif isinstance(node.type, ast.Tuple):
            broad = any(
                isinstance(e, ast.Name)
                and e.id in ("Exception", "BaseException")
                for e in node.type.elts
            )
        if broad:
            reraises = any(
                isinstance(sub, ast.Raise)
                for stmt in node.body for sub in ast.walk(stmt)
            )
            if not reraises:
                what = ("bare 'except'" if node.type is None
                        else "'except Exception'")
                self._emit(
                    node, "QF004",
                    f"{what} without re-raise can swallow worker errors; "
                    "narrow the exception, re-raise, or annotate the "
                    "capture-and-report pattern with '# qf: broad-except'",
                )
        self.generic_visit(node)

    # -- call-shaped rules: QF002, QF005, QF006 ----------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_einsum(node)
        self._check_rng(node)
        self._check_downcast_call(node)
        self._check_raw_clock(node)
        for kw in node.keywords:
            if kw.arg == "dtype" and self._is_downcast_value(kw.value):
                self._emit(
                    node, "QF006",
                    "dtype= requests a sub-float64 type; the pipeline's "
                    "1e-10 determinism bar assumes float64 — annotate "
                    "intentional casts with '# qf: dtype-downcast'",
                )
        self.generic_visit(node)

    def _check_einsum(self, node: ast.Call) -> None:
        name = (node.func.attr if isinstance(node.func, ast.Attribute)
                else node.func.id if isinstance(node.func, ast.Name)
                else None)
        if name != "einsum" or not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            # interleaved form or a computed string — cannot be checked
            self._emit(
                node, "QF002",
                "einsum subscripts are not a string literal and cannot be "
                "validated statically; prefer a literal, or annotate with "
                "'# qf: einsum'",
            )
            return
        operands = node.args[1:]
        n_ops = (None if any(isinstance(a, ast.Starred) for a in operands)
                 else len(operands))
        err = _validate_einsum_subscripts(first.value, n_ops)
        if err:
            self._emit(node, "QF002", err)

    def _check_rng(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        parts = dotted.split(".")
        if len(parts) >= 3 and parts[-2] == "random" and parts[0] in (
                "np", "numpy"):
            if parts[-1] not in _LEGACY_RNG_ALLOWED:
                self._emit(
                    node, "QF005",
                    f"legacy global-state RNG call '{dotted}' — thread a "
                    "seeded np.random.Generator through the call instead",
                )
                return
        if parts and parts[-1] == "default_rng" and not node.args \
                and not node.keywords:
            self._emit(
                node, "QF005",
                "default_rng() without a seed is irreproducible across "
                "processes; pass an explicit seed or accept a Generator",
            )

    def _is_downcast_value(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value in _DOWNCAST_NAMES
        dotted = _dotted(value)
        return dotted.split(".")[-1] in _DOWNCAST_NAMES if dotted else False

    def _check_downcast_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        last = dotted.split(".")[-1] if dotted else ""
        if last in _DOWNCAST_NAMES and dotted.split(".")[0] in ("np", "numpy"):
            self._emit(
                node, "QF006",
                f"'{dotted}' constructs a sub-float64 scalar/array; "
                "physics quantities are float64 end to end",
            )
        elif last == "astype" and node.args and self._is_downcast_value(
                node.args[0]):
            self._emit(
                node, "QF006",
                "astype to a sub-float64 dtype loses precision silently",
            )

    # -- QF008: raw clock reads --------------------------------------------

    def _check_raw_clock(self, node: ast.Call) -> None:
        if _raw_clock_exempt(self.path):
            return
        dotted = _dotted(node.func)
        if not dotted:
            return
        parts = dotted.split(".")
        # `time.perf_counter()` or a bare `perf_counter()` from-import
        hit = parts[-1] in _RAW_CLOCK_NAMES and (
            len(parts) == 1 or parts[0] == "time"
        )
        if hit:
            self._emit(
                node, "QF008",
                f"direct '{dotted}()' call — use a tracer span so the "
                "wall time reaches the trace and phase_wall_s (or "
                "Stopwatch from repro.utils.timing for a time needed "
                "untraced); annotate true "
                "exceptions with '# qf: raw-clock'",
            )

    # -- QF009: shell/primitive loops in the integrals hot path ------------

    def visit_For(self, node: ast.For) -> None:
        self._check_shell_loop(node)
        self.generic_visit(node)

    def _check_shell_loop(self, node: ast.For) -> None:
        norm = self.path.replace("\\", "/")
        if _SHELL_LOOP_PATH not in norm:
            return
        hits: set[str] = set()
        for sub in ast.walk(node.iter):
            if (isinstance(sub, ast.Attribute)
                    and sub.attr in _SHELL_LOOP_NAMES):
                hits.add(sub.attr)
            elif isinstance(sub, ast.Name) and sub.id in _SHELL_LOOP_NAMES:
                hits.add(sub.id)
        if hits:
            self._emit(
                node, "QF009",
                "python-level loop over "
                f"{'/'.join(sorted(hits))} in the integrals hot path — "
                "vectorize via repro.integrals.batched (class-grouped "
                "pair blocks), or annotate a sanctioned scalar reference "
                "path with '# qf: shell-loop'",
            )

    # -- QF007: missing __all__ --------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        if self.is_package_init:
            has_all = any(
                isinstance(stmt, (ast.Assign, ast.AugAssign))
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in (stmt.targets
                              if isinstance(stmt, ast.Assign)
                              else [stmt.target])
                )
                for stmt in node.body
            )
            nontrivial = any(
                isinstance(stmt, (ast.Import, ast.ImportFrom,
                                  ast.FunctionDef, ast.ClassDef, ast.Assign))
                for stmt in node.body
            )
            if nontrivial and not has_all:
                self._emit(
                    node, "QF007",
                    "package __init__ defines public names but no __all__; "
                    "the public API boundary must be explicit",
                )
        self.generic_visit(node)
