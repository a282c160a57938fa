"""Parsers for external CFG descriptions and the canonical on-disk format.

Three input formats are supported:
  * cfg-json: block-level disassembler export (functions with blocks carrying
    jump/fail/call targets)
  * edge-list: plain "u v" lines with "n:" for isolated nodes
  * canonical: the deterministic JSON serialization written by this module
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .graph import BasicBlock, Cfg, build_cfg

log = logging.getLogger(__name__)


class IngestError(ValueError):
    """Base class for all ingestion failures."""


class JsonSyntaxError(IngestError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"invalid JSON at byte offset {offset}: {message}")
        self.offset = offset


class SchemaError(IngestError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"field {fieldname!r}: {message}")
        self.fieldname = fieldname


class DuplicateAddressError(IngestError):
    def __init__(self, address: int):
        super().__init__(f"block address {address} appears more than once")
        self.address = address


class EdgeListError(IngestError):
    def __init__(self, line_number: int, line: str):
        super().__init__(f"malformed line {line_number}: {line!r}")
        self.line_number = line_number


@dataclass(frozen=True)
class BlockRecord:
    addr: int
    size: int = 0
    ninstr: int = 0
    jump: int | None = None
    fail: int | None = None
    calls: tuple[int, ...] = ()


@dataclass(frozen=True)
class FunctionRecord:
    name: str
    entry: int
    blocks: tuple[BlockRecord, ...]


@dataclass(frozen=True)
class CfgDocument:
    sample_id: str
    functions: tuple[FunctionRecord, ...]


# json.loads recurses once per nesting level; the offset of the level at
# which it gave up is lost
_TOO_DEEP = "nested too deeply to parse"


def _require(obj: dict, fieldname: str, kind, context: str):
    if fieldname not in obj:
        raise SchemaError(f"{context}.{fieldname}", "missing")
    value = obj[fieldname]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{context}.{fieldname}", f"expected integer, got {value!r}")
        if value < 0:
            raise SchemaError(f"{context}.{fieldname}", f"must be non-negative, got {value}")
    elif not isinstance(value, kind):
        raise SchemaError(f"{context}.{fieldname}", f"expected {kind.__name__}, got {value!r}")
    return value


def _optional_addr(obj: dict, fieldname: str, context: str) -> int | None:
    value = obj.get(fieldname)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{context}.{fieldname}", f"expected non-negative integer or null, got {value!r}")
    return value


def parse_cfg_json(data: bytes) -> CfgDocument:
    """Parse and validate a cfg-json document. Unknown fields are ignored."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise JsonSyntaxError("not valid UTF-8", e.start) from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise JsonSyntaxError(e.msg, e.pos) from e
    except RecursionError:
        raise JsonSyntaxError(_TOO_DEEP, 0) from None
    if not isinstance(raw, dict):
        raise SchemaError("<root>", "expected a JSON object")

    sample_id = _require(raw, "sample_id", str, "<root>")
    functions_raw = _require(raw, "functions", list, "<root>")
    if not functions_raw:
        raise SchemaError("functions", "must contain at least one function")

    seen_addrs: set[int] = set()
    functions: list[FunctionRecord] = []
    for fi, fn_raw in enumerate(functions_raw):
        ctx = f"functions[{fi}]"
        if not isinstance(fn_raw, dict):
            raise SchemaError(ctx, "expected an object")
        name = _require(fn_raw, "name", str, ctx)
        entry = _require(fn_raw, "entry", int, ctx)
        blocks_raw = _require(fn_raw, "blocks", list, ctx)
        if not blocks_raw:
            raise SchemaError(f"{ctx}.blocks", "must contain at least one block")
        blocks: list[BlockRecord] = []
        for bi, blk_raw in enumerate(blocks_raw):
            bctx = f"{ctx}.blocks[{bi}]"
            if not isinstance(blk_raw, dict):
                raise SchemaError(bctx, "expected an object")
            addr = _require(blk_raw, "addr", int, bctx)
            if addr in seen_addrs:
                raise DuplicateAddressError(addr)
            seen_addrs.add(addr)
            size = _require(blk_raw, "size", int, bctx) if "size" in blk_raw else 0
            ninstr = _require(blk_raw, "ninstr", int, bctx) if "ninstr" in blk_raw else 0
            jump = _optional_addr(blk_raw, "jump", bctx)
            fail = _optional_addr(blk_raw, "fail", bctx)
            if jump is not None and fail is not None and jump == fail:
                raise SchemaError(f"{bctx}.fail", "jump and fail targets must differ")
            calls_raw = blk_raw.get("calls", [])
            if not isinstance(calls_raw, list):
                raise SchemaError(f"{bctx}.calls", f"expected list, got {calls_raw!r}")
            calls = []
            for ci, c in enumerate(calls_raw):
                if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                    raise SchemaError(f"{bctx}.calls[{ci}]", f"expected non-negative integer, got {c!r}")
                calls.append(c)
            blocks.append(BlockRecord(addr=addr, size=size, ninstr=ninstr,
                                      jump=jump, fail=fail, calls=tuple(calls)))
        if entry not in {b.addr for b in blocks}:
            raise SchemaError(f"{ctx}.entry", f"entry {entry} matches no block in the function")
        functions.append(FunctionRecord(name=name, entry=entry, blocks=tuple(blocks)))
    return CfgDocument(sample_id=sample_id, functions=tuple(functions))


def document_to_cfg(doc: CfgDocument, include_call_edges: bool = True) -> Cfg:
    """Flatten a document into a whole-program Cfg.

    One node per block across all functions; jump/fail targets become edges.
    With include_call_edges, each calling block also gets an edge to every
    callee entry that resolves to a known block. Calls and jump/fail edges
    to addresses with no block are counted and logged, not fatal.
    """
    known = {b.addr for fn in doc.functions for b in fn.blocks}
    blocks: list[BasicBlock] = []
    edges: list[tuple[int, int]] = []
    dropped_calls = dropped_branches = 0
    for fn in doc.functions:
        for b in fn.blocks:
            blocks.append(BasicBlock(address=b.addr, size=b.size, instr_count=b.ninstr))
            for target in (b.jump, b.fail):
                if target is None:
                    continue
                if target in known:
                    edges.append((b.addr, target))
                else:
                    dropped_branches += 1
            if include_call_edges:
                for callee in b.calls:
                    if callee in known:
                        edges.append((b.addr, callee))
                    else:
                        dropped_calls += 1
    if dropped_calls or dropped_branches:
        log.warning("%s: dropped %d call(s) and %d jump/fail edge(s) to addresses "
                    "with no block", doc.sample_id, dropped_calls, dropped_branches)
    return build_cfg(doc.sample_id, blocks, edges)


def parse_edge_list(data: bytes, sample_id: str = "") -> Cfg:
    """Parse the line-oriented edge-list format.

    "u v" declares an edge, "n:" an isolated node, "#" a comment.
    Node labels become block addresses, re-densified in ascending order.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise EdgeListError(0, f"not valid UTF-8 at byte {e.start}") from e
    labels: set[int] = set()
    edges: list[tuple[int, int]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith(":"):
            body = line[:-1]
            if not body.isdigit():
                raise EdgeListError(lineno, raw_line)
            labels.add(int(body))
            continue
        parts = line.split(" ")
        if len(parts) != 2 or not parts[0].isdigit() or not parts[1].isdigit():
            raise EdgeListError(lineno, raw_line)
        u, v = int(parts[0]), int(parts[1])
        labels.add(u)
        labels.add(v)
        edges.append((u, v))
    if not labels:
        raise EdgeListError(0, "no nodes declared")
    blocks = [BasicBlock(address=a) for a in sorted(labels)]
    return build_cfg(sample_id, blocks, edges)


def write_canonical(g: Cfg) -> bytes:
    """Serialize a Cfg deterministically; round-trips through parse_canonical."""
    payload = {
        "sample_id": g.sample_id,
        "nodes": [
            {"addr": b.address, "size": b.size, "ninstr": b.instr_count}
            for b in g.blocks
        ],
        "edges": sorted(
            [g.blocks[u].address, g.blocks[v].address] for u, v in g.edges
        ),
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n").encode("utf-8")


def parse_canonical(data: bytes) -> Cfg:
    """Parse the canonical graph serialization back into a Cfg.

    The schema is checked a column at a time: the types of all node fields
    and all edge endpoints, their minima, and duplicate and dangling
    addresses through set sizes and containment. Only a document that fails
    one of these is checked again field by field, so that the error names
    its first offender.
    """
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        offset = getattr(e, "pos", 0) if isinstance(e, json.JSONDecodeError) else e.start
        raise JsonSyntaxError(str(getattr(e, "msg", e)), offset) from e
    except RecursionError:
        raise JsonSyntaxError(_TOO_DEEP, 0) from None
    columns = _bulk_checked(raw)
    if columns is None:
        return _parse_canonical_checked(raw)
    sample_id, addrs, sizes, ninstrs, ends = columns
    if addrs != sorted(addrs):
        order = sorted(range(len(addrs)), key=addrs.__getitem__)
        addrs, sizes, ninstrs = ([col[i] for i in order] for col in (addrs, sizes, ninstrs))
    ids = list(map(dict(zip(addrs, range(len(addrs)))).__getitem__, ends))
    return Cfg(sample_id, tuple(map(BasicBlock, addrs, sizes, ninstrs)),
               tuple(sorted(set(zip(ids[::2], ids[1::2])))))


def _bulk_checked(raw):
    """(sample_id, addrs, sizes, ninstrs, edge endpoints end to end) of a
    canonical document that passes every check of _parse_canonical_checked,
    taken a column at a time; None if one fails."""
    try:
        sample_id, nodes, edges = raw["sample_id"], raw["nodes"], raw["edges"]
        addrs = [n["addr"] for n in nodes]
        sizes = [n["size"] for n in nodes]
        ninstrs = [n["ninstr"] for n in nodes]
        ends = [x for e in edges for x in e]
    except (TypeError, KeyError):
        return None
    # type() is not isinstance(): a bool is no integer here
    if (type(sample_id) is not str or type(nodes) is not list or not nodes
            or type(edges) is not list or {*map(type, nodes)} != {dict}
            or {*map(type, addrs), *map(type, sizes), *map(type, ninstrs)} != {int}
            or min(addrs) < 0 or min(sizes) < 0 or min(ninstrs) < 0
            or {*map(type, edges)} - {list} or {*map(len, edges)} - {2}
            or {*map(type, ends)} - {int} or min(ends, default=0) < 0):
        return None
    known = set(addrs)
    if len(known) < len(addrs) or not known.issuperset(ends):
        return None
    return sample_id, addrs, sizes, ninstrs, ends


def _parse_canonical_checked(raw) -> Cfg:
    """parse_canonical field by field; raises on the first offender."""
    if not isinstance(raw, dict):
        raise SchemaError("<root>", "expected a JSON object")
    sample_id = _require(raw, "sample_id", str, "<root>")
    nodes_raw = _require(raw, "nodes", list, "<root>")
    if not nodes_raw:
        raise SchemaError("nodes", "must contain at least one node")
    blocks: list[BasicBlock] = []
    seen: set[int] = set()
    for i, n in enumerate(nodes_raw):
        ctx = f"nodes[{i}]"
        if not isinstance(n, dict):
            raise SchemaError(ctx, "expected an object")
        addr = _require(n, "addr", int, ctx)
        if addr in seen:
            raise DuplicateAddressError(addr)
        seen.add(addr)
        blocks.append(BasicBlock(
            address=addr,
            size=_require(n, "size", int, ctx),
            instr_count=_require(n, "ninstr", int, ctx),
        ))
    edges_raw = _require(raw, "edges", list, "<root>")
    edges: list[tuple[int, int]] = []
    for i, e in enumerate(edges_raw):
        ctx = f"edges[{i}]"
        if (not isinstance(e, list) or len(e) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in e)):
            raise SchemaError(ctx, f"expected [addr, addr], got {e!r}")
        edges.append((e[0], e[1]))
    return build_cfg(sample_id, blocks, edges)
