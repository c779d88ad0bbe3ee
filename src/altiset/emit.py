"""Wire-format writers, and the order-system format, for the library and
test fixtures; no subcommand reads or writes these, so no CLI job imports
this module.  emit/parse round-trip to identical values.
"""

from __future__ import annotations

import json

import numpy as np

from .collective import SubsetFamily
from .datasets import _is_int, _load_json, _size
from .dependence import PointSet2D
from .errors import ParseError
from .geoalt import EUCLIDEAN_2D, SummitField
from .orders import KeyedOrder, OrderSystem
from .relation import FiniteRelation, Universe


def emit_relation(rel: FiniteRelation) -> str:
    doc: dict = {"size": rel.universe.size}
    if rel.universe.labels is not None:
        doc["labels"] = list(rel.universe.labels)
    doc["pairs"] = sorted([a, b] for a, b in rel.pairs())
    return json.dumps(doc, sort_keys=True)


def _is_finite_number(v) -> bool:
    """A JSON number: not a boolean, and not NaN or an infinity (which
    json.loads reads from NaN, Infinity and -Infinity)."""
    return _is_int(v) or (isinstance(v, float) and bool(np.isfinite(v)))


def parse_order_system(text: str) -> OrderSystem:
    doc = _load_json(text)
    size = _size(doc)
    orders = doc.get("orders")
    if not isinstance(orders, list) or not orders:
        raise ParseError('"orders" must be a nonempty list')
    keyed = []
    for k, o in enumerate(orders):
        if not isinstance(o, dict):
            raise ParseError(f'"orders"[{k}] must be an object')
        keys = o.get("keys")
        if not isinstance(keys, list) or not all(map(_is_finite_number, keys)):
            raise ParseError(f'"orders"[{k}].keys must be a list of finite numbers')
        if len(keys) != size:
            raise ParseError(f'"orders"[{k}].keys has {len(keys)} entries for size {size}')
        direction = o.get("direction", "gain")
        if direction not in ("gain", "price"):
            raise ParseError(f'"orders"[{k}].direction must be "gain" or "price"')
        keyed.append(KeyedOrder(tuple(keys), direction))
    return OrderSystem(Universe(size), tuple(keyed))


def emit_order_system(system: OrderSystem) -> str:
    doc = {
        "orders": [
            {"direction": o.direction, "keys": list(o.keys)} for o in system.orders
        ],
        "size": system.universe.size,
    }
    return json.dumps(doc, sort_keys=True)


def _csv(header: str, rows: np.ndarray) -> str:
    """The header, then each row's floats by repr, which holds no comma or quote."""
    return "".join([header + "\n", *(",".join(map(repr, row)) + "\n" for row in rows.tolist())])


def emit_points_csv(points: PointSet2D) -> str:
    return _csv("x,y", points.xy)


def emit_summits_csv(field: SummitField) -> str:
    header = "x,y,h" if field.space == EUCLIDEAN_2D else "x,h"
    return _csv(header, np.column_stack([field.coords, field.heights]))


def emit_family(family: SubsetFamily) -> str:
    doc = {
        "elements": list(family.ground.elements),
        "family": [sorted(m) for m in family.members],
        "h": {e: family.ground.valuation[e] for e in family.ground.elements},
    }
    return json.dumps(doc, sort_keys=True)
