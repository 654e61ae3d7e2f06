"""SER rule family: round-trip and determinism contracts of persisted data.

Every artifact the package writes to disk — cache entries, JSONL run
logs, manifests, golden flow results, bench reports, lint reports — is
registered in :data:`repro.analysis.schemamodel.REPRO_SCHEMA_MODEL`, and
this module proves the registered contracts statically over the package
call graph (:mod:`repro.analysis.callgraph`), built once per run:

``SER001``
    Writer/reader field drift.  Dict-key abstract interpretation extracts
    the keys each registered writer emits (dict literals, subscript
    stores, ``dict(k=v)`` keywords, ``asdict`` over known dataclasses)
    and the keys each reader consumes (``payload["k"]``, ``.get("k")``);
    a key written but never read (or read but never written) is drift,
    unless the registry declares it ``write_only``/``read_only`` with a
    justification.  Readers that consume keys dynamically
    (``data.items()``, ``cls(**...)`` over a parameter) satisfy every
    written key.
``SER002``
    Non-canonical emission on a persisted path: a ``json.dump(s)`` call
    reachable from a registered writer or persist function without
    ``sort_keys=True``, or a set/frozenset value flowing into a persisted
    payload without ``sorted(...)`` — both break byte-identity of
    artifacts that cache keys and golden diffs hash.
``SER003``
    Schema drift without a version bump: the extracted field set must
    equal the registry pin (``SchemaSpec.fields``), and the module-level
    version constant must equal the pinned version.  Changing the payload
    therefore forces a registry edit — the review trigger for the
    "did you bump the version?" question.  ``tests/golden/schemas.json``
    pins the same report a second time, outside the package.
``SER004``
    Fingerprint incompleteness: every field of a fingerprinted dataclass
    (``FlowConfig``, ``TraceSpec``, ``SweepTask``) must appear as a key in
    its fingerprint payload or be exempted with a justification —
    otherwise two configs differing only in that field collide on one
    cache key.
``SER005``
    Float-repr hazards on persisted numeric paths: ``round()``,
    ``str.format``, ``%``-formatting, or f-string format specs applied to
    a persisted payload value — formatting belongs at render time; the
    payload keeps full-precision, ``repr``-stable floats.

Schemas whose writers (or, for SER001, readers) are not all present in
the scanned tree are skipped: a partial lint cannot prove anything about
a pair it can only half see.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from .callgraph import (
    CallGraph,
    FunctionNode,
    build_call_graph,
    dotted_name,
    own_body,
)
from .rules import Finding, SourceModule
from .schemamodel import REPRO_SCHEMA_MODEL, FingerprintSpec, SchemaModel, SchemaSpec

__all__ = ["check_serialization", "schema_report", "SCHEMA_REPORT_VERSION"]

#: Version of the :func:`schema_report` payload layout (the golden pin).
SCHEMA_REPORT_VERSION = 1

#: ``json`` emitters that must carry ``sort_keys=True`` on persisted paths.
_JSON_EMITTERS = frozenset({"json.dump", "json.dumps"})

#: Builtins producing iteration-order-unstable collections.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})


def check_serialization(
    modules: list[SourceModule], model: SchemaModel = REPRO_SCHEMA_MODEL
) -> Iterator[Finding]:
    """Run SER001–SER005 over the registered schemas of ``model``.

    ``model`` is a parameter so synthetic trees can be checked in tests;
    the default is the shipped registry.
    """
    graph = build_call_graph(modules)
    for spec in model.schemas:
        yield from _check_schema(graph, spec)
    for fingerprint in model.fingerprints:
        yield from _check_fingerprint(graph, fingerprint)


def schema_report(
    modules: list[SourceModule], model: SchemaModel = REPRO_SCHEMA_MODEL
) -> dict:
    """Extracted per-schema field sets and versions, as plain JSON.

    This is what ``repro lint --schemas`` prints and what
    ``tests/golden/schemas.json`` pins: the field vocabulary *extracted
    from source*, so both payload drift and extractor drift show up as a
    reviewable diff.  Schemas whose writers are not all in the scanned
    tree are omitted.
    """
    graph = build_call_graph(modules)
    schemas: dict = {}
    for spec in model.schemas:
        if not _all_present(graph, spec.writers):
            continue
        written, complete = _schema_written_keys(graph, spec)
        if not complete:
            continue
        version = _constant_value(graph, spec.version_constant)
        schemas[spec.name] = {
            "fields": sorted(written),
            "version": version if version is not None else spec.version,
        }
    return {"schema": SCHEMA_REPORT_VERSION, "schemas": schemas}


# -- key extraction ---------------------------------------------------------------


def _function_node(graph: CallGraph, qualname: str) -> FunctionNode | None:
    node = graph.functions.get(qualname)
    if node is None or not isinstance(
        node.node, (ast.FunctionDef, ast.AsyncFunctionDef)
    ):
        return None
    return node


def _all_present(graph: CallGraph, qualnames: tuple) -> bool:
    return bool(qualnames) and all(
        _function_node(graph, qualname) is not None for qualname in qualnames
    )


def _class_fields(graph: CallGraph, class_qualname: str) -> dict[str, int]:
    """All declared fields of a class (bases included): name → line."""
    fields: dict[str, int] = {}
    seen: set[str] = set()
    stack = [class_qualname]
    while stack:
        current = stack.pop(0)
        if current in seen:
            continue
        seen.add(current)
        info = graph.classes.get(current)
        if info is None:
            continue
        for name, field_info in info.fields.items():
            fields.setdefault(name, field_info.line)
        stack.extend(info.bases)
    return fields


def _asdict_subject(
    graph: CallGraph, node: FunctionNode, call: ast.Call
) -> str | None:
    """The dataclass qualname an ``asdict(...)`` call expands, if known."""
    if not call.args:
        return None
    argument = call.args[0]
    owner = node.owner_class
    if isinstance(argument, ast.Name) and argument.id in ("self", "cls"):
        return owner
    if (
        isinstance(argument, ast.Attribute)
        and isinstance(argument.value, ast.Name)
        and argument.value.id in ("self", "cls")
        and owner is not None
    ):
        info = graph.field_of(owner, argument.attr)
        if info is not None:
            return info.type_qualname
    return None


def _written_keys(
    graph: CallGraph, qualname: str
) -> tuple[dict[str, int], list[tuple[str, ast.expr]], bool]:
    """Keys a writer emits (key → first line) plus their value expressions.

    Collects string keys of dict literals, constant-string subscript
    stores, ``dict(k=v)`` keywords, and the field names of ``asdict`` over
    a resolvable dataclass (``self`` or an annotated ``self.attr``).  The
    final element is a completeness flag: ``False`` when an ``asdict``
    subject could not be resolved to a scanned class (a partial lint), in
    which case the key set under-approximates and the field-pin rules
    must not condemn it.
    """
    node = _function_node(graph, qualname)
    written: dict[str, int] = {}
    values: list[tuple[str, ast.expr]] = []
    complete = True
    if node is None:
        return written, values, complete
    aliases = graph.aliases.get(node.module, {})
    for child in own_body(node.node):
        if isinstance(child, ast.Dict):
            for key, value in zip(child.keys, child.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    written.setdefault(key.value, key.lineno)
                    values.append((key.value, value))
        elif isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                child.targets if isinstance(child, ast.Assign) else [child.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    written.setdefault(target.slice.value, target.lineno)
                    if child.value is not None:
                        values.append((target.slice.value, child.value))
        elif isinstance(child, ast.Call):
            if isinstance(child.func, ast.Name) and child.func.id == "dict":
                for keyword in child.keywords:
                    if keyword.arg is not None:
                        written.setdefault(keyword.arg, keyword.value.lineno)
                        values.append((keyword.arg, keyword.value))
            dotted = dotted_name(child.func, aliases)
            if dotted in ("dataclasses.asdict", "asdict"):
                subject = _asdict_subject(graph, node, child)
                if subject is not None and subject in graph.classes:
                    for name in _class_fields(graph, subject):
                        written.setdefault(name, child.lineno)
                else:
                    complete = False
    return written, values, complete


def _parameter_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset:
    arguments = node.args
    names = [
        parameter.arg
        for parameter in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        )
    ]
    if arguments.vararg is not None:
        names.append(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.append(arguments.kwarg.arg)
    return frozenset(names)


def _read_keys(graph: CallGraph, qualname: str) -> tuple[dict[str, int], bool]:
    """Keys a reader consumes (key → first line), plus a dynamic flag.

    ``dynamic`` is true when the reader consumes keys whose names are not
    statically visible — ``.items()``/``.keys()``/``.values()`` on a
    parameter, ``**parameter`` unpacking, or ``dict(parameter)`` — in
    which case it satisfies every written key.
    """
    node = _function_node(graph, qualname)
    reads: dict[str, int] = {}
    dynamic = False
    if node is None:
        return reads, dynamic
    parameters = _parameter_names(node.node)
    for child in own_body(node.node):
        if (
            isinstance(child, ast.Subscript)
            and isinstance(child.ctx, ast.Load)
            and isinstance(child.slice, ast.Constant)
            and isinstance(child.slice.value, str)
        ):
            reads.setdefault(child.slice.value, child.lineno)
        elif isinstance(child, ast.Call):
            if (
                isinstance(child.func, ast.Attribute)
                and child.func.attr == "get"
                and child.args
                and isinstance(child.args[0], ast.Constant)
                and isinstance(child.args[0].value, str)
            ):
                reads.setdefault(child.args[0].value, child.lineno)
            if (
                isinstance(child.func, ast.Attribute)
                and child.func.attr in ("items", "keys", "values")
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id in parameters
            ):
                dynamic = True
            if (
                isinstance(child.func, ast.Name)
                and child.func.id == "dict"
                and child.args
                and isinstance(child.args[0], ast.Name)
                and child.args[0].id in parameters
            ):
                dynamic = True
            for keyword in child.keywords:
                if (
                    keyword.arg is None
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in parameters
                ):
                    dynamic = True
    return reads, dynamic


def _schema_written_keys(
    graph: CallGraph, spec: SchemaSpec
) -> tuple[dict[str, int], bool]:
    """Union of written keys over all writers (key → first line seen)."""
    union: dict[str, int] = {}
    complete = True
    for writer in spec.writers:
        written, _, writer_complete = _written_keys(graph, writer)
        complete = complete and writer_complete
        for key, line in written.items():
            union.setdefault(key, line)
    return union, complete


def _constant_value(graph: CallGraph, qualname: str | None):
    """Value of a module-level constant assignment, if it is a literal."""
    if qualname is None:
        return None
    module_name, _, constant = qualname.rpartition(".")
    module_node = graph.functions.get(module_name + ".<module>")
    if module_node is None or not isinstance(module_node.node, ast.Module):
        return None
    for statement in module_node.node.body:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id == constant
                and isinstance(statement.value, ast.Constant)
            ):
                return statement.value.value
    return None


# -- the rules --------------------------------------------------------------------


def _check_schema(graph: CallGraph, spec: SchemaSpec) -> Iterator[Finding]:
    if not _all_present(graph, spec.writers):
        return
    yield from _check_field_drift(graph, spec)
    yield from _check_canonical_emission(graph, spec)
    yield from _check_version_pin(graph, spec)
    yield from _check_repr_hazards(graph, spec)


def _writer_sites(
    graph: CallGraph, spec: SchemaSpec
) -> tuple[dict[str, tuple[str, str, int]], bool]:
    """key → (writer qualname, path, line) over all writers, first wins."""
    sites: dict[str, tuple[str, str, int]] = {}
    complete = True
    for writer in spec.writers:
        node = _function_node(graph, writer)
        written, _, writer_complete = _written_keys(graph, writer)
        complete = complete and writer_complete
        for key, line in written.items():
            sites.setdefault(key, (writer, node.path, line))
    return sites, complete


def _check_field_drift(graph: CallGraph, spec: SchemaSpec) -> Iterator[Finding]:
    """SER001: every written key is read, every read key is written."""
    if not spec.readers or not _all_present(graph, spec.readers):
        return
    written, complete = _writer_sites(graph, spec)
    consumed: dict[str, tuple[str, str, int]] = {}
    dynamic = False
    for reader in spec.readers:
        node = _function_node(graph, reader)
        reads, reader_dynamic = _read_keys(graph, reader)
        dynamic = dynamic or reader_dynamic
        for key, line in reads.items():
            consumed.setdefault(key, (reader, node.path, line))
    write_only = spec.write_only_names()
    read_only = spec.read_only_names()
    labels = frozenset(spec.label_keys)
    readers_text = ", ".join(spec.readers)
    if not dynamic:
        for key in sorted(written):
            if key in consumed or key in write_only or key in labels:
                continue
            writer, path, line = written[key]
            yield Finding(
                path,
                line,
                "SER001",
                f"schema '{spec.name}': key {key!r} written by {writer} is "
                f"never read by any declared reader ({readers_text}); read "
                f"it, drop it, or declare it write_only in the schema "
                f"registry with a justification",
            )
    for key in sorted(consumed):
        if key in written or key in read_only or key in labels or not complete:
            continue
        reader, path, line = consumed[key]
        yield Finding(
            path,
            line,
            "SER001",
            f"schema '{spec.name}': key {key!r} read by {reader} is never "
            f"written by any declared writer; the read can only see its "
            f"default — write it, or declare it read_only in the schema "
            f"registry with a justification",
        )
    for key in sorted(write_only & frozenset(consumed)):
        reader, path, line = consumed[key]
        yield Finding(
            path,
            line,
            "SER001",
            f"schema '{spec.name}': key {key!r} is declared write_only in "
            f"the schema registry but {reader} reads it; drop the stale "
            f"declaration",
        )


def _check_canonical_emission(graph: CallGraph, spec: SchemaSpec) -> Iterator[Finding]:
    """SER002: persisted paths emit canonical JSON and no set-ordered values."""
    entries = [
        qualname
        for qualname in (*spec.writers, *spec.persist)
        if qualname in graph.functions
    ]
    reachable = graph.reachable(entries)
    for qualname in sorted(reachable):
        node = _function_node(graph, qualname)
        if node is None:
            continue
        aliases = graph.aliases.get(node.module, {})
        for child in own_body(node.node):
            if not isinstance(child, ast.Call):
                continue
            dotted = dotted_name(child.func, aliases)
            if dotted not in _JSON_EMITTERS:
                continue
            if not _has_sort_keys(child):
                chain = " -> ".join(reachable[qualname])
                yield Finding(
                    node.path,
                    child.lineno,
                    "SER002",
                    f"schema '{spec.name}': {dotted} on a persisted path "
                    f"without sort_keys=True; emission must be canonical so "
                    f"artifacts hash and diff identically [{chain}]",
                )
    for writer in spec.writers:
        node = _function_node(graph, writer)
        aliases = graph.aliases.get(node.module, {})
        _, values, _ = _written_keys(graph, writer)
        for key, value in values:
            hazard = _set_hazard(value, aliases)
            if hazard is not None:
                yield Finding(
                    node.path,
                    hazard.lineno,
                    "SER002",
                    f"schema '{spec.name}': value for key {key!r} in {writer} "
                    f"builds a set — iteration order is unstable across "
                    f"processes; wrap it in sorted(...) before persisting",
                )


def _has_sort_keys(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "sort_keys":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _set_hazard(value: ast.expr, aliases: Mapping[str, str]) -> ast.expr | None:
    """A set-building node in ``value`` not neutralized by ``sorted(...)``."""
    sanctioned: set[int] = set()
    for node in ast.walk(value):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and node.args
        ):
            for sub in ast.walk(node.args[0]):
                sanctioned.add(id(sub))
    for node in ast.walk(value):
        if id(node) in sanctioned:
            continue
        if isinstance(node, (ast.Set, ast.SetComp)):
            return node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _SET_CONSTRUCTORS
        ):
            return node
    return None


def _check_version_pin(graph: CallGraph, spec: SchemaSpec) -> Iterator[Finding]:
    """SER003: extracted fields match the pin; the version constant agrees."""
    written, complete = _writer_sites(graph, spec)
    extracted = frozenset(written)
    pinned = frozenset(spec.fields)
    if complete and extracted != pinned:
        added = sorted(extracted - pinned)
        removed = sorted(pinned - extracted)
        anchor_writer = spec.writers[0]
        node = _function_node(graph, anchor_writer)
        if added:
            _, path, line = written[added[0]]
        else:
            path, line = node.path, node.line
        constant = spec.version_constant or "the schema version constant"
        yield Finding(
            path,
            line,
            "SER003",
            f"schema '{spec.name}': field set drifted from the registry pin "
            f"(added: {added or '[]'}, removed: {removed or '[]'}); decide "
            f"whether {constant} must bump, then re-pin SchemaSpec.fields "
            f"and regenerate tests/golden/schemas.json",
        )
    value = _constant_value(graph, spec.version_constant)
    if (
        spec.version is not None
        and value is not None
        and value != spec.version
    ):
        module_name = spec.version_constant.rpartition(".")[0]
        module_node = graph.functions[module_name + ".<module>"]
        yield Finding(
            module_node.path,
            1,
            "SER003",
            f"schema '{spec.name}': version constant "
            f"{spec.version_constant} = {value!r} disagrees with the "
            f"registry pin {spec.version!r}; update the SchemaSpec in the "
            f"same commit that bumps the constant",
        )


def _check_repr_hazards(graph: CallGraph, spec: SchemaSpec) -> Iterator[Finding]:
    """SER005: no lossy formatting on values flowing into the payload."""
    for writer in spec.writers:
        node = _function_node(graph, writer)
        _, values, _ = _written_keys(graph, writer)
        for key, value in values:
            hazard = _repr_hazard(value)
            if hazard is None:
                continue
            offender, what = hazard
            yield Finding(
                node.path,
                offender.lineno,
                "SER005",
                f"schema '{spec.name}': value for key {key!r} in {writer} "
                f"uses {what}; persist full-precision repr-stable numbers "
                f"and format only at render time",
            )


def _repr_hazard(value: ast.expr) -> tuple[ast.expr, str] | None:
    for node in ast.walk(value):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "round"
        ):
            return node, "round(), which silently truncates precision"
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "format"
        ):
            return node, "str.format(), which stringifies the number"
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if (
                    isinstance(part, ast.FormattedValue)
                    and part.format_spec is not None
                ):
                    return node, "an f-string format spec, which stringifies the number"
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
        ):
            return node, "%-formatting, which stringifies the number"
    return None


def _check_fingerprint(graph: CallGraph, spec: FingerprintSpec) -> Iterator[Finding]:
    """SER004: fingerprint payloads cover every field of their subject."""
    node = _function_node(graph, spec.function)
    if node is None or spec.subject not in graph.classes:
        return
    written, _, _ = _written_keys(graph, spec.function)
    fields = _class_fields(graph, spec.subject)
    exempt = spec.exempt_names()
    for name in sorted(fields):
        if name in written or name in exempt:
            continue
        yield Finding(
            node.path,
            node.line,
            "SER004",
            f"fingerprint '{spec.name}': {spec.function} omits field "
            f"{spec.subject}.{name}, so two configurations differing only "
            f"in it fingerprint identically and collide on one cache key; "
            f"include it or exempt it in the schema registry with a "
            f"justification",
        )
    for name in sorted(exempt & frozenset(written)):
        yield Finding(
            node.path,
            written[name],
            "SER004",
            f"fingerprint '{spec.name}': field {spec.subject}.{name} is "
            f"declared exempt in the schema registry but {spec.function} "
            f"covers it; drop the stale exemption",
        )
