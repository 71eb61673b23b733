"""Input documents: network topology, candidate routes and bitrate catalog.

All three are UTF-8 JSON.  Unknown fields are ignored with a warning so
documents stay forward compatible.

Network::

    {"name": "NSFNet",
     "nodes": [{"id": 0}, ...],
     "links": [{"id": 0, "src": 0, "dst": 1, "length": 1050, "slots": 320}, ...]}

Routes (paths are node-id sequences, resolved against the network; the
per-pair file order is the retry order)::

    {"name": "NSFNet 3 shortest",
     "routes": [{"src": 0, "dst": 1, "paths": [[0, 1], [0, 2, 1], ...]}, ...]}

Bitrates (keys are the bitrate labels; option arrays are ordered fewest
slots first, which is the trial order)::

    {"10":  [{"modulation": "64-QAM", "slots": 1, "reach": 80}, ...],
     "40":  [...],
     ...}

Parsing is total: a document either yields a validated model or raises a
located :class:`~eonsim.errors.InputError`; no partially built model ever
escapes.

Each rule about values has one owner, a model constructor that raises
:class:`ValueError` or, for a missing hop, :class:`NoSuchLinkError` (the
README's "Input files" lists them).  The parsers check only the document's
shape (:class:`~eonsim.errors.SchemaError`; a key repeated within one JSON
object is one, located at that object) and turn a model's rejection into a
:class:`~eonsim.errors.ValidationError` that starts with the JSON path:
``links[i]``, ``routes[i].paths[j]``, ``bit_rates['label'][j]``, or
``network`` and ``bit_rates`` for rules over the whole document.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import (
    MalformedDocumentError,
    NoSuchLinkError,
    SchemaError,
    ValidationError,
)
from .network import Link, Network, RouteSet
from .traffic import BitRateCatalog, BitRateEntry, ModulationOption

_NETWORK_FIELDS = {"name", "nodes", "links"}
_NODE_FIELDS = {"id"}
_LINK_FIELDS = {"id", "src", "dst", "length", "slots"}
_ROUTES_FIELDS = {"name", "routes"}
_ROUTE_FIELDS = {"src", "dst", "paths"}
_OPTION_FIELDS = {"modulation", "slots", "reach"}


def _load_document(text: str, root: str):
    """Parse JSON text; a key repeated in one object is a located ``SchemaError``.

    Plain ``json.loads`` keeps only the last of two equal keys, which would
    silently drop a field or a whole bitrate entry.  The object hook sees
    one object's pairs but not where the object sits, so it only notes each
    object that repeats a key; the document is walked for the path of the
    first such object only when there is one.  ``root`` names the document
    in paths (``network``, ``routes`` or ``bit_rates``).
    """
    repeats = {}  # id(object) -> (object, repeated key); keeps objects alive

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    repeats[id(obj)] = (obj, key)
                    break
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise MalformedDocumentError(f"not valid JSON: {err}") from err
    if repeats:
        for path, obj in _objects(doc, root, root):
            if id(obj) in repeats:
                raise SchemaError(
                    f"{path}: duplicate key {repeats[id(obj)][1]!r}")
    return doc


def _objects(node, path, root=None):
    """Every JSON object under ``node`` with its path, outer objects first.

    Paths follow the parsers: members of the document object are named
    plainly (``links[3]``), except bitrate labels (``bit_rates['10'][0]``);
    deeper members are joined with a dot (``links[3].extra``).
    """
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            if root is None:
                member = f"{path}.{key}"
            elif root == "bit_rates":
                member = f"{root}[{key!r}]"
            else:
                member = key
            yield from _objects(value, member)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _objects(value, f"{path}[{i}]")


def _require(mapping, key, kind, path):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SchemaError(f"{path}.{key}: missing field")
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}.{key}: expected a number, "
                              f"got {type(value).__name__}")
        return float(value)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SchemaError(f"{path}.{key}: expected an integer, "
                          f"got {type(value).__name__}")
    if kind in (str, list) and not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _warn_unknown(mapping, known, path):
    for key in mapping:
        if key not in known:
            # Imported here: a document without unknown fields never needs it.
            import logging
            logging.getLogger(__name__).warning(
                "%s: ignoring unknown field %r", path, key)


def _build(path, make, *args):
    """``make(*args)``, re-raising a model's rejection as a located error."""
    try:
        return make(*args)
    except (ValueError, NoSuchLinkError) as err:
        raise ValidationError(f"{path}: {err}") from err


def parse_network(text: str) -> Network:
    """Parse and validate a network topology document."""
    doc = _load_document(text, "network")
    name = _require(doc, "name", str, "network")
    nodes_doc = _require(doc, "nodes", list, "network")
    links_doc = _require(doc, "links", list, "network")
    _warn_unknown(doc, _NETWORK_FIELDS, "network")
    node_ids = []
    for i, node_doc in enumerate(nodes_doc):
        path = f"nodes[{i}]"
        node_ids.append(_require(node_doc, "id", int, path))
        _warn_unknown(node_doc, _NODE_FIELDS, path)
    links = []
    for i, link_doc in enumerate(links_doc):
        path = f"links[{i}]"
        link_id = _require(link_doc, "id", int, path)
        src = _require(link_doc, "src", int, path)
        dst = _require(link_doc, "dst", int, path)
        length = _require(link_doc, "length", float, path)
        slots = _require(link_doc, "slots", int, path)
        _warn_unknown(link_doc, _LINK_FIELDS, path)
        links.append(_build(path, Link, link_id, src, dst, length, slots))
    return _build("network", Network, name, node_ids, links)


def parse_routes(text: str, network: Network) -> RouteSet:
    """Parse candidate routes, resolving node sequences against the network."""
    doc = _load_document(text, "routes")
    _require(doc, "name", str, "routes")
    routes_doc = _require(doc, "routes", list, "routes")
    _warn_unknown(doc, _ROUTES_FIELDS, "routes")
    route_set = RouteSet()
    for i, pair_doc in enumerate(routes_doc):
        path = f"routes[{i}]"
        src = _require(pair_doc, "src", int, path)
        dst = _require(pair_doc, "dst", int, path)
        paths = _require(pair_doc, "paths", list, path)
        _warn_unknown(pair_doc, _ROUTE_FIELDS, path)
        for j, node_path in enumerate(paths):
            where = f"{path}.paths[{j}]"
            if (not isinstance(node_path, list) or len(node_path) < 2
                    or not all(isinstance(n, int) and not isinstance(n, bool)
                               for n in node_path)):
                raise SchemaError(f"{where}: expected a list of >= 2 node ids")
            link_ids = [_build(where, network.link_by_endpoints, a, b)
                        for a, b in zip(node_path, node_path[1:])]
            _build(where, route_set.add_route, network, src, dst, link_ids)
    return route_set


def parse_bit_rates(text: str) -> BitRateCatalog:
    """Parse a bitrate catalog; entry and option order follow the document."""
    doc = _load_document(text, "bit_rates")
    if not isinstance(doc, dict):
        raise SchemaError("bit_rates: expected an object keyed by bitrate label")
    entries = []
    for label, options_doc in doc.items():
        path = f"bit_rates[{label!r}]"
        try:
            bitrate = float(label)
        except ValueError:
            raise SchemaError(f"{path}: key is not a numeric bitrate label") from None
        if not isinstance(options_doc, list):
            raise SchemaError(f"{path}: expected a list of options, "
                              f"got {type(options_doc).__name__}")
        options = []
        for j, option_doc in enumerate(options_doc):
            where = f"{path}[{j}]"
            modulation = _require(option_doc, "modulation", str, where)
            slots = _require(option_doc, "slots", int, where)
            reach = _require(option_doc, "reach", float, where)
            _warn_unknown(option_doc, _OPTION_FIELDS, where)
            options.append(_build(where, ModulationOption, modulation, slots, reach))
        entries.append(_build(path, BitRateEntry, bitrate, label, options))
    return _build("bit_rates", BitRateCatalog, entries)


# -- file helpers ------------------------------------------------------------

def load_network(path) -> Network:
    return parse_network(Path(path).read_text(encoding="utf-8"))


def load_routes(path, network: Network) -> RouteSet:
    return parse_routes(Path(path).read_text(encoding="utf-8"), network)


def load_bit_rates(path) -> BitRateCatalog:
    return parse_bit_rates(Path(path).read_text(encoding="utf-8"))

