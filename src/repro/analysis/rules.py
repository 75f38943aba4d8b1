"""Repo-specific AST lint rules.

Each rule encodes an invariant this codebase has already paid to
re-learn (see ``docs/ANALYSIS.md`` for the bug behind each one):

- **R1** falsy-or-default: ``param or default`` on an optional
  parameter silently replaces falsy-but-valid values (the
  ``query(depth=0)`` bug).
- **R2** unordered-accumulation: iterating a ``set``/``dict`` view
  into a float accumulation without ``sorted(...)`` makes scores
  depend on hash/insertion order (the landmark-composition bug).
- **R3** unseeded-randomness: module-level ``random.*`` /
  ``np.random.*`` calls bypass the injected, seeded generators.
- **R4** mutable-default: mutable default argument values.
- **R5** unbounded-propagation: ``while`` loops in ``core``/
  ``landmarks`` driving the propagation engines without a visible
  iteration bound.
- **R6** blind-except: bare ``except:`` or a broad handler that
  swallows the exception.
- **R7** raw-timing: raw ``time.time()``/``perf_counter()`` reads in
  ``src/`` outside :mod:`repro.obs` bypass the observability layer.
- **R8** private-graph-access: reading ``._out``/``._in``/
  ``._node_topics`` outside ``graph/`` bypasses the
  :class:`~repro.graph.snapshot.GraphSnapshot` read path and sees
  mutations mid-propagation.
- **R9** tuple-returning-recommend: a ``recommend``-named function in
  ``src/`` returning bare ``(node, score)`` tuples resurrects the
  pre-:mod:`repro.api` shape; new entry points must return
  :class:`~repro.api.RecommendationResponse` (sanctioned deprecation
  shims carry a suppression).

Rules are pluggable: subclass :class:`Rule`, decorate with
:func:`register`, and the engine, the CLI rule listing, and the
suppression checker pick it up automatically.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Type

from .findings import Finding


class ModuleContext:
    """Parsed module plus the cross-rule indexes rules need."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[id(child)] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(id(node))

    def enclosing_function(
            self, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        current = self.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current  # type: ignore[return-value]
            current = self.parent(current)
        return None


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding a :class:`Finding` per violation. Rules must be pure
    functions of the :class:`ModuleContext` — no filesystem access —
    so fixtures in the test suite can drive them from strings.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=module.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=self.id, message=message)


#: Registry of every known rule, keyed by rule id.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:  # repro: ignore[W4] -- the plug-in decorator docs/ANALYSIS.md tells rule authors to apply; every rule below is registered through it
    """Class decorator adding *rule_class* to :data:`REGISTRY`."""
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    REGISTRY[rule_class.id] = rule_class
    return rule_class


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def _annotation_text(annotation: Optional[ast.expr]) -> str:
    if annotation is None:
        return ""
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return ""


def optional_parameters(func: ast.FunctionDef) -> Set[str]:
    """Parameter names of *func* that may legitimately be ``None``.

    A parameter counts as optional when its default is ``None`` or its
    annotation mentions ``Optional``/``None``. These are exactly the
    parameters for which ``param or default`` is the suspicious
    none-fallback idiom R1 targets.
    """
    optional: Set[str] = set()
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = (
        [None] * (len(positional) - len(args.defaults)) + list(args.defaults))
    for arg, default in zip(positional, defaults):
        if _is_none(default) or _optional_annotation(arg.annotation):
            optional.add(arg.arg)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if _is_none(kw_default) or _optional_annotation(arg.annotation):
            optional.add(arg.arg)
    return optional


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _optional_annotation(annotation: Optional[ast.expr]) -> bool:
    text = _annotation_text(annotation)
    return "Optional" in text or "None" in text


_PASSTHROUGH_CALLS = {"list", "tuple", "iter", "reversed"}
_UNORDERED_VIEWS = {"keys", "values", "items"}
_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_ANNOTATION_RE = re.compile(r"\b(Set|FrozenSet|set|frozenset)\b")


def _strip_passthrough(node: ast.expr) -> ast.expr:
    """Unwrap ``list(X)``/``tuple(X)``/``iter(X)`` — order-preserving."""
    while (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id in _PASSTHROUGH_CALLS and len(node.args) == 1):
        node = node.args[0]
    return node


def set_typed_locals(func: ast.FunctionDef) -> Set[str]:
    """Names bound to a set within *func* (assignment or annotation)."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            if _is_set_expr(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and (
                    _SET_ANNOTATION_RE.search(_annotation_text(node.annotation))
                    or (node.value is not None
                        and _is_set_expr(node.value, names))):
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    node = _strip_passthrough(node)
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _SET_CONSTRUCTORS):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def is_unordered_iterable(node: ast.expr, set_names: Set[str]) -> bool:
    """Whether *node* iterates in hash/insertion order.

    ``sorted(...)`` (and anything else not recognisably a set or a
    dict view) is treated as ordered; the rule errs toward silence so
    that every finding it does emit is worth fixing.
    """
    node = _strip_passthrough(node)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _UNORDERED_VIEWS and not node.args):
        return True
    return _is_set_expr(node, set_names)


_ACCUMULATE_OPS = (ast.Add, ast.Sub, ast.Mult)


def _contains_float_accumulation(body: Sequence[ast.stmt]) -> bool:
    """Whether *body* accumulates numbers across iterations.

    Recognises both ``total += x`` and the codebase's dict-accumulate
    idiom ``bucket[k] = bucket.get(k, 0.0) + x``.
    """
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, _ACCUMULATE_OPS):
                return True
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Add)):
                for part in ast.walk(node.value):
                    if (isinstance(part, ast.Call)
                            and isinstance(part.func, ast.Attribute)
                            and part.func.attr == "get"):
                        return True
    return False


def _is_int_valued(node: ast.expr) -> bool:
    """Conservatively: does *node* evaluate to an int (order-safe sum)?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int) and not isinstance(node.value, bool)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"len", "int", "ord"}
    if isinstance(node, ast.Compare):
        return True  # sum(x > 0 for ...) counts matches
    return False


# ----------------------------------------------------------------------
# R1 — falsy-or-default
# ----------------------------------------------------------------------

@register
class FalsyOrDefault(Rule):
    """``param or default`` where ``param`` may be falsy-but-valid."""

    id = "R1"
    name = "falsy-or-default"
    description = (
        "'param or default' on an optional parameter: 0, 0.0, '', or an "
        "empty collection silently falls back to the default (the "
        "query(depth=0) bug). Use 'param if param is not None else default'.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.BoolOp)
                    and isinstance(node.op, ast.Or)):
                continue
            left = node.values[0]
            if not isinstance(left, ast.Name):
                continue
            func = module.enclosing_function(node)
            if func is None or left.id not in optional_parameters(func):
                continue
            if self._is_truthiness_test(module, node):
                continue
            yield self.finding(
                module, node,
                f"'{left.id} or ...' replaces falsy-but-valid values of "
                f"optional parameter '{left.id}'; write "
                f"'{left.id} if {left.id} is not None else ...'")

    @staticmethod
    def _is_truthiness_test(module: ModuleContext, node: ast.BoolOp) -> bool:
        """True when the ``or`` is a boolean condition, not a fallback."""
        parent = module.parent(node)
        while isinstance(parent, (ast.BoolOp, ast.UnaryOp)):
            node = parent  # type: ignore[assignment]
            parent = module.parent(parent)
        if isinstance(parent, (ast.If, ast.While)) and parent.test is node:
            return True
        if isinstance(parent, ast.IfExp) and parent.test is node:
            return True
        if isinstance(parent, ast.Assert):
            return True
        if isinstance(parent, ast.comprehension) and node in parent.ifs:
            return True
        return False


# ----------------------------------------------------------------------
# R2 — unordered-accumulation
# ----------------------------------------------------------------------

@register
class UnorderedAccumulation(Rule):
    """Float accumulation over a set/dict view without ``sorted``."""

    id = "R2"
    name = "unordered-accumulation"
    description = (
        "iterating a set or dict view into a float accumulation makes the "
        "result depend on hash/insertion order (the landmark-composition "
        "bug). Wrap the iterable in sorted(...), or use math.fsum for an "
        "order-independent sum.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        set_names_cache: Dict[int, Set[str]] = {}

        def set_names_for(node: ast.AST) -> Set[str]:
            func = module.enclosing_function(node)
            if func is None:
                return set()
            key = id(func)
            if key not in set_names_cache:
                set_names_cache[key] = set_typed_locals(func)
            return set_names_cache[key]

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                if (is_unordered_iterable(node.iter, set_names_for(node))
                        and _contains_float_accumulation(node.body)):
                    yield self.finding(
                        module, node,
                        "loop accumulates over an unordered iterable; "
                        "iterate 'sorted(...)' so float sums are "
                        "reproducible")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "sum" and node.args):
                arg = node.args[0]
                if isinstance(arg, ast.GeneratorExp):
                    if _is_int_valued(arg.elt):
                        continue
                    source = arg.generators[0].iter
                else:
                    source = arg
                if is_unordered_iterable(source, set_names_for(node)):
                    yield self.finding(
                        module, node,
                        "sum() over an unordered iterable is order-"
                        "dependent in float arithmetic; use math.fsum(...) "
                        "or sum(sorted(...))")


# ----------------------------------------------------------------------
# R3 — unseeded-randomness
# ----------------------------------------------------------------------

_RANDOM_MODULE_OK = {"Random", "SystemRandom", "getstate", "setstate"}
_NUMPY_RANDOM_OK = {"default_rng", "Generator", "RandomState", "SeedSequence",
                    "BitGenerator", "PCG64", "Philox", "MT19937"}


@register
class UnseededRandomness(Rule):
    """Module-level ``random.*`` / ``np.random.*`` calls."""

    id = "R3"
    name = "unseeded-randomness"
    description = (
        "calls on the global random/np.random state are unseeded and "
        "unreproducible; thread an injected random.Random(seed) or "
        "numpy Generator through instead (see repro.utils.rng).")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        random_aliases, numpy_aliases, from_imports = self._imports(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in from_imports:
                yield self.finding(
                    module, node,
                    f"'{from_imports[func.id]}' drives the global random "
                    "state; use an injected Random/Generator")
            elif isinstance(func, ast.Attribute):
                target = func.value
                if (isinstance(target, ast.Name)
                        and target.id in random_aliases
                        and func.attr not in _RANDOM_MODULE_OK):
                    yield self.finding(
                        module, node,
                        f"'random.{func.attr}' drives the global random "
                        "state; use an injected random.Random(seed)")
                elif (isinstance(target, ast.Attribute)
                      and target.attr == "random"
                      and isinstance(target.value, ast.Name)
                      and target.value.id in numpy_aliases
                      and func.attr not in _NUMPY_RANDOM_OK):
                    yield self.finding(
                        module, node,
                        f"'np.random.{func.attr}' drives numpy's global "
                        "random state; use np.random.default_rng(seed)")

    @staticmethod
    def _imports(module: ModuleContext) -> tuple:
        random_aliases: Set[str] = set()
        numpy_aliases: Set[str] = set()
        from_imports: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in _RANDOM_MODULE_OK:
                        from_imports[alias.asname or alias.name] = (
                            f"random.{alias.name}")
        return random_aliases, numpy_aliases, from_imports


# ----------------------------------------------------------------------
# R4 — mutable-default
# ----------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict",
                         "OrderedDict", "Counter", "deque"}


@register
class MutableDefault(Rule):
    """Mutable default argument values."""

    id = "R4"
    name = "mutable-default"
    description = (
        "a mutable default is created once and shared across calls; "
        "default to None and construct inside the function.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module, default,
                        f"mutable default argument in '{node.name}'; "
                        "use None and build the value per call")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_CONSTRUCTORS)


# ----------------------------------------------------------------------
# R5 — unbounded-propagation
# ----------------------------------------------------------------------

_ENGINE_CALL_NAMES = {"single_source_scores", "multi_source", "single_source",
                      "propagate", "katz_scores", "matrix_scores"}
_BOUND_NAME_RE = re.compile(
    r"max_iter|max_iters|max_depth|max_rounds|max_steps|budget|limit"
    r"|tolerance|ttl|deadline")
_GUARDED_DIRS = ("core", "landmarks")


@register
class UnboundedPropagation(Rule):
    """``while`` loops driving propagation without a visible bound."""

    id = "R5"
    name = "unbounded-propagation"
    description = (
        "a while loop in core/ or landmarks/ that spins a propagation "
        "engine (or 'while True') must reference an iteration bound "
        "(max_iter/max_depth/tolerance/...) so divergent parameters "
        "cannot hang a query (Prop. 3 can be violated by config).")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = module.path.replace("\\", "/").split("/")
        if not any(part in _GUARDED_DIRS for part in parts):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.While):
                continue
            constant_true = (isinstance(node.test, ast.Constant)
                             and bool(node.test.value))
            calls_engine = any(
                isinstance(inner, ast.Call)
                and self._call_name(inner) in _ENGINE_CALL_NAMES
                for stmt in node.body for inner in ast.walk(stmt))
            if not (constant_true or calls_engine):
                continue
            if self._references_bound(node):
                continue
            yield self.finding(
                module, node,
                "while loop drives propagation with no visible iteration "
                "bound; gate it on max_iter/max_depth (or check a "
                "tolerance/budget) so it cannot spin forever")

    @staticmethod
    def _call_name(node: ast.Call) -> str:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return ""

    @staticmethod
    def _references_bound(node: ast.While) -> bool:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and _BOUND_NAME_RE.search(inner.id):
                return True
            if (isinstance(inner, ast.Attribute)
                    and _BOUND_NAME_RE.search(inner.attr)):
                return True
        return False


# ----------------------------------------------------------------------
# R6 — blind-except
# ----------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


@register
class BlindExcept(Rule):
    """Bare ``except:`` or a broad handler that swallows everything."""

    id = "R6"
    name = "blind-except"
    description = (
        "bare 'except:' (or 'except Exception: pass') hides "
        "ConvergenceError/StorageError bugs as silent wrong answers; "
        "catch the specific repro.errors type, or at least log and "
        "re-raise.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt "
                    "too; name the exception type")
            elif self._is_broad(node.type) and self._swallows(node.body):
                yield self.finding(
                    module, node,
                    "broad exception handler silently swallows the error; "
                    "narrow the type or handle it")

    @staticmethod
    def _is_broad(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _BROAD_EXCEPTIONS
        if isinstance(node, ast.Tuple):
            return any(isinstance(el, ast.Name) and el.id in _BROAD_EXCEPTIONS
                       for el in node.elts)
        return False

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))
            for stmt in body)


# ----------------------------------------------------------------------
# R7 — raw-timing
# ----------------------------------------------------------------------

_CLOCK_FUNCTIONS = {"time", "perf_counter", "monotonic", "process_time",
                    "thread_time", "time_ns", "perf_counter_ns",
                    "monotonic_ns", "process_time_ns", "thread_time_ns"}
_OBS_EXEMPT_DIRS = ("obs",)


@register
class RawTiming(Rule):
    """Raw ``time.*`` clock reads in library code outside ``repro.obs``."""

    id = "R7"
    name = "raw-timing"
    description = (
        "raw time.time()/perf_counter() calls in src/ scatter ad-hoc "
        "timing that the observability layer cannot see; measure through "
        "repro.obs (span/timed_span or Stopwatch from repro.obs.clock) "
        "so every stage shows up in one report.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = module.path.replace("\\", "/").split("/")
        if "src" not in parts:
            return
        if any(part in _OBS_EXEMPT_DIRS for part in parts):
            return
        time_aliases, from_imports = self._imports(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in from_imports:
                yield self.finding(
                    module, node,
                    f"'{from_imports[func.id]}' is a raw clock read; time "
                    "through repro.obs (span/timed_span or obs.clock) "
                    "instead")
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and func.value.id in time_aliases
                  and func.attr in _CLOCK_FUNCTIONS):
                yield self.finding(
                    module, node,
                    f"'time.{func.attr}' is a raw clock read; time through "
                    "repro.obs (span/timed_span or obs.clock) instead")

    @staticmethod
    def _imports(module: ModuleContext) -> tuple:
        time_aliases: Set[str] = set()
        from_imports: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _CLOCK_FUNCTIONS:
                        from_imports[alias.asname or alias.name] = (
                            f"time.{alias.name}")
        return time_aliases, from_imports


# ----------------------------------------------------------------------
# R8 — private-graph-access
# ----------------------------------------------------------------------

_PRIVATE_GRAPH_ATTRS = {"_out", "_in", "_node_topics"}
_GRAPH_EXEMPT_DIRS = ("graph",)


@register
class PrivateGraphAccess(Rule):
    """``._out``/``._in``/``._node_topics`` reads outside ``graph/``."""

    id = "R8"
    name = "private-graph-access"
    description = (
        "touching a graph's private adjacency dicts (._out/._in/"
        "._node_topics) outside graph/ bypasses the frozen GraphSnapshot "
        "read path, so the reader can observe a mutation mid-propagation "
        "and its epoch is unaccounted for; go through graph.snapshot() "
        "or the public accessors instead.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = module.path.replace("\\", "/").split("/")
        if any(part in _GRAPH_EXEMPT_DIRS for part in parts):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in _PRIVATE_GRAPH_ATTRS:
                continue
            yield self.finding(
                module, node,
                f"'.{node.attr}' reaches into the graph's private "
                "adjacency state; read through graph.snapshot() (or the "
                "public accessors) so the access is epoch-consistent")


# ----------------------------------------------------------------------
# R9 — tuple-returning-recommend
# ----------------------------------------------------------------------

_API_MODULE_FILES = ("api.py",)
_TUPLE_PAIR_ANNOTATION_RE = re.compile(
    r"Tuple\[\s*int\s*,\s*(float|int)\s*\]")


@register
class TupleReturningRecommend(Rule):
    """``recommend``-named functions returning bare ``(node, score)``."""

    id = "R9"
    name = "tuple-returning-recommend"
    description = (
        "a recommend-named function returning bare (node, score) tuples "
        "resurrects the pre-repro.api surface the serving tier cannot "
        "sit in front of; return a repro.api.RecommendationResponse "
        "(sanctioned deprecation shims suppress this on the def line).")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = module.path.replace("\\", "/").split("/")
        if "src" not in parts:
            return
        if parts[-1] in _API_MODULE_FILES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("recommend"):
                continue
            if (self._pair_annotation(node.returns)
                    or self._returns_pair_literal(node)):
                yield self.finding(
                    module, node,
                    f"'{node.name}' returns bare (node, score) tuples; new "
                    "recommendation entry points must return a "
                    "repro.api.RecommendationResponse (wrap via "
                    "response_from_pairs)")

    @staticmethod
    def _pair_annotation(annotation: Optional[ast.expr]) -> bool:
        return bool(
            _TUPLE_PAIR_ANNOTATION_RE.search(_annotation_text(annotation)))

    @staticmethod
    def _returns_pair_literal(func: ast.FunctionDef) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Tuple) and len(value.elts) == 2:
                return True
            if isinstance(value, ast.List) and any(
                    isinstance(el, ast.Tuple) for el in value.elts):
                return True
            if (isinstance(value, ast.ListComp)
                    and isinstance(value.elt, ast.Tuple)):
                return True
        return False


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]
