"""The built-in lint rules — each pinned to a bug class this repo shipped.

Every rule here mechanises a contract that previously existed only as prose
in ``CHANGES.md`` and was at some point broken by a real PR:

===================  =====================================================
Rule                 Contract (and the PR whose bug it guards against)
===================  =====================================================
no-global-rng        rng is threaded, never global or ``seed + i``-derived
                     (PR 8 fixed correlated additive seed streams)
no-naked-dtype       dtype literals live in ``nn/dtypes.py``
                     (PR 6 centralised the dtype policy)
fork-safety          only picklable callables cross ``parallel_map``
                     (PR 3 replaced closures with sampler objects)
no-silent-except     no swallowed broad exceptions (PR 7/8 serving layers
                     log-or-reraise at every fault-isolation boundary)
registry-docstring   registered components carry docstrings — they feed
                     ``scripts/gen_api_docs.py`` (PR 2/5)
stage-contract       SAMPLERS stages keep the uniform
                     ``(graph, seeds, *, rng)`` signature (PR 9)
state-dict-pairing   ``state_dict`` and ``load_state_dict`` come in pairs
                     (PR 4 fixed optimizer state lost on reload)
===================  =====================================================

Rules are registered in :data:`repro.api.LINT_RULES` and instantiated per
run, so a plugin can register its own rule next to these (see
``docs/extending.md``).  Path-scoped rules match on path *suffixes*, which
lets the fixture tests exercise them under synthetic paths.
"""

from __future__ import annotations

import ast

from ...api.registries import LINT_RULES
from .core import Finding

__all__ = [
    "ImportMap",
    "NoGlobalRngRule",
    "NoNakedDtypeRule",
    "BackendPurityRule",
    "ForkSafetyRule",
    "NoSilentExceptRule",
    "RegistryDocstringRule",
    "StageContractRule",
    "StateDictPairingRule",
]


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #
class ImportMap(ast.NodeVisitor):
    """Alias -> dotted-path map of every import in a module.

    Resolves ``import numpy as np`` / ``from numpy import random`` /
    ``from numpy.random import default_rng as drg`` so rules can match the
    *canonical* name (``numpy.random.default_rng``) however it was imported.
    Relative imports keep their leading dots, so matching uses
    :func:`dotted_matches` (exact or suffix) rather than equality.
    """

    def __init__(self, tree: ast.Module):
        self.aliases: dict[str, str] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname is None and "." in alias.name:
                # ``import numpy.random`` binds ``numpy``; record the root.
                self.aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        prefix = "." * node.level + (node.module or "")
        for alias in node.names:
            if alias.name == "*":
                continue
            self.aliases[alias.asname or alias.name] = f"{prefix}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain (or ``None``)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def dotted_matches(dotted: str | None, target: str) -> bool:
    """Whether a resolved dotted name is ``target`` (exact or suffix match,
    so relative imports like ``..utils.rng.get_rng`` still match)."""
    if dotted is None:
        return False
    return dotted == target or dotted.endswith("." + target)


def path_matches(path: str, suffixes: tuple[str, ...]) -> bool:
    """Whether ``path`` ends with any of the given posix suffixes."""
    normalized = path.replace("\\", "/")
    return any(normalized == suffix or normalized.endswith("/" + suffix)
               for suffix in suffixes)


class Rule:
    """Convenience base: carries ``name``/``severity`` and a finding factory."""

    name = "rule"
    severity = "error"

    def finding(self, node: ast.AST, path: str, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node`` with this rule's identity."""
        return Finding(rule=self.name, path=path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message, severity=self.severity)

    def check(self, module_ast: ast.Module, source: str,
              path: str) -> list[Finding]:
        raise NotImplementedError


def _walk_with_scopes(tree: ast.Module):
    """Yield ``(node, at_module_level)`` for every node in the tree."""
    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            is_scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.Lambda, ast.ClassDef))
            yield child, top
            yield from visit(child, top and not is_scope)
    yield from visit(tree, True)


# --------------------------------------------------------------------------- #
# no-global-rng
# --------------------------------------------------------------------------- #
#: numpy.random module attributes that are *not* draws from the legacy
#: global state (constructing an explicit Generator/SeedSequence is fine).
_RNG_SAFE = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}
_RNG_FACTORIES = ("numpy.random.default_rng", "utils.rng.get_rng",
                  "utils.rng.spawn_rng", "rng.get_rng", "rng.spawn_rng")


@LINT_RULES.register("no-global-rng")
class NoGlobalRngRule(Rule):
    """Determinism contract: rng must be threaded, never global or additive.

    Flags (a) draws from the legacy global numpy/stdlib rng state
    (``np.random.rand``, ``random.choice``, ``np.random.seed`` ...), (b)
    module-level rng construction (shared mutable state built at import
    time), and (c) the pre-PR-8 ``default_rng(seed + i)`` idiom whose
    additive streams collide across base seeds — per-item seeds must come
    from :func:`repro.utils.rng.spawn_seeds` / ``SeedSequence`` spawning.
    ``repro/utils/rng.py`` itself is the sanctioned owner of the process
    rng and is exempt.
    """

    name = "no-global-rng"
    allowed_paths = ("repro/utils/rng.py",)

    def check(self, module_ast, source, path):
        if path_matches(path, self.allowed_paths):
            return []
        imports = ImportMap(module_ast)
        findings = []
        for node, at_module_level in _walk_with_scopes(module_ast):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted is None:
                continue
            head, _, tail = dotted.rpartition(".")
            if head == "numpy.random" and tail not in _RNG_SAFE:
                findings.append(self.finding(
                    node, path,
                    f"draw from the global numpy rng ({dotted}); thread a "
                    "numpy.random.Generator parameter or use repro.utils.rng",
                ))
                continue
            if head == "random" or dotted == "random":
                findings.append(self.finding(
                    node, path,
                    f"stdlib global rng call ({dotted}); thread a "
                    "numpy.random.Generator parameter instead",
                ))
                continue
            is_factory = any(dotted_matches(dotted, name)
                             for name in _RNG_FACTORIES)
            if is_factory and at_module_level:
                findings.append(self.finding(
                    node, path,
                    "module-level rng construction creates shared mutable "
                    "state at import time; construct lazily inside a "
                    "function (see repro.utils.rng.get_rng)",
                ))
            if is_factory and _has_seed_arithmetic(node):
                findings.append(self.finding(
                    node, path,
                    "per-item seeds derived by seed arithmetic produce "
                    "correlated streams across base seeds; use "
                    "repro.utils.rng.spawn_seeds / SeedSequence spawning",
                ))
        return findings


def _has_seed_arithmetic(call: ast.Call) -> bool:
    """True when any argument is ``seed + i``-style arithmetic on a seed."""
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for node in ast.walk(arg):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
                continue
            for leaf in ast.walk(node):
                name = None
                if isinstance(leaf, ast.Name):
                    name = leaf.id
                elif isinstance(leaf, ast.Attribute):
                    name = leaf.attr
                if name is not None and "seed" in name.lower():
                    return True
    return False


# --------------------------------------------------------------------------- #
# no-naked-dtype
# --------------------------------------------------------------------------- #
@LINT_RULES.register("no-naked-dtype")
class NoNakedDtypeRule(Rule):
    """Single-dtype-policy contract: float literals live in ``nn/dtypes.py``.

    Flags ``np.float32`` / ``np.float64`` attribute references and
    ``np.dtype("float32")``-style literal constructions anywhere outside
    ``nn/dtypes.py``.  Call sites should use the named policy constants
    (``FLOAT32``/``FLOAT64``/``FLOAT_DTYPES``) or
    :func:`repro.nn.dtypes.as_float`, so flipping the serving precision is
    one switch instead of a grep.
    """

    name = "no-naked-dtype"
    allowed_paths = ("nn/dtypes.py",)

    def check(self, module_ast, source, path):
        if path_matches(path, self.allowed_paths):
            return []
        imports = ImportMap(module_ast)
        findings = []
        dtype_call_values: set[ast.AST] = set()
        for node in ast.walk(module_ast):
            if isinstance(node, ast.Call):
                dotted = imports.resolve(node.func)
                if dotted_matches(dotted, "numpy.dtype") and node.args:
                    arg = node.args[0]
                    literal = (isinstance(arg, ast.Constant)
                               and arg.value in ("float32", "float64"))
                    attr = imports.resolve(arg) in ("numpy.float32",
                                                    "numpy.float64")
                    if literal or attr:
                        dtype_call_values.add(arg)
                        findings.append(self.finding(
                            node, path,
                            "naked dtype literal; use the named constants "
                            "in repro.nn.dtypes (FLOAT32/FLOAT64) or "
                            "as_float/default_dtype",
                        ))
        for node in ast.walk(module_ast):
            if isinstance(node, ast.Attribute) and node not in dtype_call_values:
                if imports.resolve(node) in ("numpy.float32", "numpy.float64"):
                    findings.append(self.finding(
                        node, path,
                        f"naked np.{node.attr} literal; dtype literals "
                        "belong in repro.nn.dtypes — use FLOAT32/FLOAT64/"
                        "FLOAT_DTYPES or as_float/default_dtype",
                    ))
        return findings


# --------------------------------------------------------------------------- #
# fork-safety
# --------------------------------------------------------------------------- #
_POOL_ENTRYPOINTS = ("parallel_map", "parallel_imap")


@LINT_RULES.register("fork-safety")
class ForkSafetyRule(Rule):
    """Picklability contract of the fork-pool layer.

    Lambdas and functions defined inside another function cannot be pickled
    by the pool's result/argument plumbing; passing one to ``parallel_map``
    / ``parallel_imap`` works only by accident of fork inheritance and
    breaks under any spawn-based fallback.
    """

    name = "fork-safety"

    def check(self, module_ast, source, path):
        findings = []
        self._visit_scope(module_ast, [], findings, path)
        return findings

    def _visit_scope(self, node, local_funcs: list[set[str]], findings, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if local_funcs:  # defined inside a function: local, unpicklable
                    local_funcs[-1].add(child.name)
                self._visit_scope(child, local_funcs + [set()], findings, path)
                continue
            if isinstance(child, ast.Call):
                self._check_call(child, local_funcs, findings, path)
            self._visit_scope(child, local_funcs, findings, path)

    def _check_call(self, call: ast.Call, local_funcs, findings, path):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name not in _POOL_ENTRYPOINTS:
            return
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        for arg in arguments:
            if isinstance(arg, ast.Lambda):
                findings.append(self.finding(
                    arg, path,
                    f"lambda passed to {name}() is not picklable across the "
                    "process pool; use a module-level function or a "
                    "callable object",
                ))
            elif isinstance(arg, ast.Name) and any(
                    arg.id in scope for scope in local_funcs):
                findings.append(self.finding(
                    arg, path,
                    f"locally-defined function {arg.id!r} passed to "
                    f"{name}() is not picklable across the process pool; "
                    "move it to module level",
                ))


# --------------------------------------------------------------------------- #
# no-silent-except
# --------------------------------------------------------------------------- #
_LOG_METHODS = {"debug", "info", "warning", "warn", "error", "exception",
                "critical", "log"}


@LINT_RULES.register("no-silent-except")
class NoSilentExceptRule(Rule):
    """Fault-isolation contract: broad handlers must re-raise or log.

    A bare ``except:`` (unless it immediately re-raises) and any
    ``except Exception/BaseException`` handler that neither raises, logs,
    nor uses the bound exception swallows failures silently — the bug class
    the serving layer's per-design fault isolation exists to prevent.
    Narrow handlers (``except ValueError: pass``) are a legitimate idiom
    and are not flagged.
    """

    name = "no-silent-except"

    def check(self, module_ast, source, path):
        findings = []
        for node in ast.walk(module_ast):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not self._body_raises(node.body):
                    findings.append(self.finding(
                        node, path,
                        "bare 'except:' swallows everything including "
                        "KeyboardInterrupt; catch a specific exception or "
                        "re-raise",
                    ))
                continue
            if not self._is_broad(node.type):
                continue
            if self._body_raises(node.body) or self._body_logs(node.body):
                continue
            if node.name and self._body_uses(node.body, node.name):
                continue
            findings.append(self.finding(
                node, path,
                "broad 'except Exception' neither re-raises, logs, nor "
                "propagates the exception; add context or narrow the type",
            ))
        return findings

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for node in nodes:
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name) else None)
            if name in ("Exception", "BaseException"):
                return True
        return False

    @staticmethod
    def _body_raises(body) -> bool:
        return any(isinstance(node, ast.Raise)
                   for stmt in body for node in ast.walk(stmt))

    @staticmethod
    def _body_logs(body) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute):
                    if node.func.attr in _LOG_METHODS:
                        return True
        return False

    @staticmethod
    def _body_uses(body, name: str) -> bool:
        return any(isinstance(node, ast.Name) and node.id == name
                   for stmt in body for node in ast.walk(stmt))


# --------------------------------------------------------------------------- #
# registry-docstring / stage-contract / state-dict-pairing
# --------------------------------------------------------------------------- #
def _register_decorators(node):
    """The ``(registry_name, call)`` pairs of ``@REG.register(...)`` decorators."""
    for decorator in getattr(node, "decorator_list", []):
        if not (isinstance(decorator, ast.Call) and decorator.args):
            continue
        func = decorator.func
        if not (isinstance(func, ast.Attribute) and func.attr == "register"):
            continue
        base = func.value
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name) and base.id.isupper():
            yield base.id, decorator


def _register_calls(tree: ast.Module):
    """Module-level ``REG.register("name", obj)`` call-form registrations."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "register"):
            continue
        if isinstance(func.value, ast.Name) and func.value.id.isupper():
            yield func.value.id, node


@LINT_RULES.register("registry-docstring")
class RegistryDocstringRule(Rule):
    """Documentation contract of the plugin surface.

    Every component registered into an ``ALL_CAPS`` registry — decorator
    form or ``REG.register("name", obj)`` call form — must carry a
    docstring: the generated ``docs/api.md`` and the ``components`` CLI
    render it, so a missing docstring ships an empty row to users.
    """

    name = "registry-docstring"
    severity = "warning"

    def check(self, module_ast, source, path):
        findings = []
        defs = {node.name: node for node in module_ast.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))}
        for node in ast.walk(module_ast):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                for registry, _ in _register_decorators(node):
                    if not ast.get_docstring(node):
                        findings.append(self.finding(
                            node, path,
                            f"{node.name!r} is registered in {registry} but "
                            "has no docstring (it feeds gen_api_docs.py and "
                            "the components listing)",
                        ))
        for registry, call in _register_calls(module_ast):
            target = call.args[1]
            if isinstance(target, ast.Lambda):
                findings.append(self.finding(
                    call, path,
                    f"lambda registered in {registry} cannot carry a "
                    "docstring; register a named function",
                ))
            elif isinstance(target, ast.Name) and target.id in defs:
                if not ast.get_docstring(defs[target.id]):
                    findings.append(self.finding(
                        call, path,
                        f"{target.id!r} is registered in {registry} but has "
                        "no docstring (it feeds gen_api_docs.py and the "
                        "components listing)",
                    ))
        return findings


@LINT_RULES.register("stage-contract")
class StageContractRule(Rule):
    """Uniform sampler-stage signature contract of :mod:`repro.graph.datapipe`.

    Components registered into ``SAMPLERS`` are either stages — callables of
    shape ``(graph, seeds, *, rng)`` with ``rng`` keyword-only — or pipeline
    factories (no ``graph`` parameter).  A stage class must define ``apply``
    as ``(self, graph, seeds, *, rng)``; a stage function taking ``graph``
    first must match the full contract.  Positional ``rng`` parameters are
    the historical pre-datapipe signature and break declarative chaining.
    """

    name = "stage-contract"

    def check(self, module_ast, source, path):
        findings = []
        for node in ast.walk(module_ast):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(registry == "SAMPLERS"
                       for registry, _ in _register_decorators(node)):
                continue
            if isinstance(node, ast.ClassDef):
                apply_def = next(
                    (item for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "apply"), None)
                if apply_def is not None:
                    findings.extend(self._check_signature(
                        apply_def, path, expect_self=True,
                        owner=f"{node.name}.apply"))
            else:
                args = [a.arg for a in node.args.args]
                if args[:1] == ["graph"]:
                    findings.extend(self._check_signature(
                        node, path, expect_self=False, owner=node.name))
        return findings

    def _check_signature(self, func: ast.FunctionDef, path: str,
                         expect_self: bool, owner: str) -> list[Finding]:
        expected = (["self"] if expect_self else []) + ["graph", "seeds"]
        positional = [a.arg for a in func.args.args]
        kwonly = [a.arg for a in func.args.kwonlyargs]
        problems = []
        if positional != expected:
            problems.append(
                f"positional parameters are {positional} (expected {expected})"
            )
        if "rng" in positional:
            problems.append("'rng' must be keyword-only ('*, rng'), not "
                            "positional")
        elif "rng" not in kwonly:
            problems.append("missing the keyword-only 'rng' parameter")
        if not problems:
            return []
        return [self.finding(
            func, path,
            f"{owner} breaks the sampler stage contract "
            f"(graph, seeds, *, rng): {'; '.join(problems)}",
        )]


@LINT_RULES.register("state-dict-pairing")
class StateDictPairingRule(Rule):
    """Serialisation round-trip contract.

    A class defining ``state_dict`` without ``load_state_dict`` (or vice
    versa) produces checkpoints that cannot be restored — the PR 4 bug
    where optimizer moments and Performer projections silently reset on
    reload.  Classes whose bases include ``Protocol`` are structural types,
    not serialisable components, and are exempt.
    """

    name = "state-dict-pairing"

    def check(self, module_ast, source, path):
        findings = []
        for node in ast.walk(module_ast):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._is_protocol(node):
                continue
            methods = {item.name for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            has_save = "state_dict" in methods
            has_load = "load_state_dict" in methods
            if has_save == has_load:
                continue
            missing = "load_state_dict" if has_save else "state_dict"
            present = "state_dict" if has_save else "load_state_dict"
            findings.append(self.finding(
                node, path,
                f"class {node.name!r} defines {present} but not {missing}; "
                "serialisation must round-trip (define both or inherit "
                "both)",
            ))
        return findings

    @staticmethod
    def _is_protocol(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None)
            if name is not None and "Protocol" in name:
                return True
        return False
