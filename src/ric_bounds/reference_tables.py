"""Frozen reference values backing the regression suite and CLI deltas.

The package ships a read-only grid of previously tabulated bound values
over alpha in {0.1, 0.3, 0.5, 0.7, 0.9} and rho = beta/alpha in
{0.05, 0.1, 0.3, 0.5, 0.7, 0.9}:

* tables 1-2: closed-form upper bounds xi_uric_u alongside comparison
  upper bounds xi_uric_BT from a union-bound construction (data only,
  never recomputed here);
* tables 3-4: optimized upper bounds xi_uric_u_low with their achieving
  (c3_opt, nu_opt, gamma_opt) triples;
* table 5: closed-form lower bounds xi_lric_l alongside xi_lric_BT;
* table 7: optimized lower bounds xi_lric_l_lift with their triples.

The asset is a plain CSV (one record per line,
``table_id,alpha,rho,quantity,value``, no quoting) compiled into the
wheel.  The loader reads it with ``open`` from the package directory
and splits each line on commas, so the import needs neither ``csv`` nor
``importlib.resources``, and a package imported from a zip archive
cannot load it.  It asserts the field count, the quantity names, unique
cells and the exact cell counts, so a corrupted asset fails fast.
Entries are immutable named tuples.  One ``(table_id, alpha, rho, quantity)``
index serves :func:`lookup` and each bound kind's reference: the first of
its ``_KIND_SOURCES`` with the cell (upper-simple: table 1, then table 2).
The BT quantities relate to the U/L constants of that construction via
U = xi^2 - 1 and L = 1 - xi^2 (see :func:`bt_relation`).

Erratum: the source prints table 5, (alpha, rho) = (0.1, 0.5),
xi_lric_l as -0.670; the asset stores -0.671.  Table 1 prints
xi_uric_u = 2.6706 at the same cell, and the closed forms satisfy
xi_uric_u + xi_lric_l == 2 exactly, so the lower value is -0.6706.
Table 5 rounds its other negative cells correctly to 3 decimals, so the
printed -0.670 is a truncation and -0.671 is the correctly rounded entry.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache

QUANTITIES = (
    "xi_uric_BT",
    "xi_uric_u",
    "xi_uric_u_low",
    "xi_lric_BT",
    "xi_lric_l",
    "xi_lric_l_lift",
    "c3_opt",
    "nu_opt",
    "gamma_opt",
)

# Exact number of cells per (table, quantity); the loader enforces these.
_EXPECTED_COUNTS = {
    (1, "xi_uric_BT"): 15,
    (1, "xi_uric_u"): 15,
    (2, "xi_uric_BT"): 10,
    (2, "xi_uric_u"): 10,
    (3, "c3_opt"): 15,
    (3, "nu_opt"): 15,
    (3, "gamma_opt"): 15,
    (3, "xi_uric_u_low"): 15,
    (4, "c3_opt"): 10,
    (4, "nu_opt"): 10,
    (4, "gamma_opt"): 10,
    (4, "xi_uric_u_low"): 10,
    (5, "xi_lric_BT"): 20,
    (5, "xi_lric_l"): 20,
    (7, "c3_opt"): 20,
    (7, "nu_opt"): 20,
    (7, "gamma_opt"): 20,
    (7, "xi_lric_l_lift"): 20,
}


class ReferenceEntry(namedtuple("ReferenceEntry", ("table_id", "alpha", "rho", "quantity",
                                                   "value"))):
    """One table cell: (table_id, alpha, rho) -> quantity value."""

    __slots__ = ()


def _key(table_id: int, alpha: float, rho: float, quantity: str):
    # Grid coordinates are 1-2 digit decimals; rounding forgives float
    # artifacts like 0.30000000000000004 from caller-side arithmetic.
    return table_id, round(alpha, 6), round(rho, 6), quantity


@lru_cache(maxsize=1)
def _load() -> tuple[tuple[ReferenceEntry, ...], dict]:
    path = os.path.join(os.path.dirname(__file__), "data", "tables.csv")
    with open(path, "rb") as asset:
        lines = asset.read().decode("ascii").splitlines()
    entries = []
    index = {}
    counts: dict[tuple[int, str], int] = {}
    for line in lines:
        if not line:
            continue
        table_id, alpha, rho, quantity, value = line.split(",")
        entry = ReferenceEntry(int(table_id), float(alpha), float(rho), quantity, float(value))
        if quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity in reference asset: {quantity!r}")
        key = _key(entry.table_id, entry.alpha, entry.rho, quantity)
        if key in index:
            raise ValueError(f"duplicate reference cell {key}")
        index[key] = entry.value
        entries.append(entry)
        counts[entry.table_id, quantity] = counts.get((entry.table_id, quantity), 0) + 1

    if counts != _EXPECTED_COUNTS:
        wrong = {
            key: (counts.get(key), _EXPECTED_COUNTS.get(key))
            for key in set(counts) | set(_EXPECTED_COUNTS)
            if counts.get(key) != _EXPECTED_COUNTS.get(key)
        }
        raise ValueError(f"reference asset cell counts are wrong (got, expected): {wrong}")
    return tuple(entries), index


def entries() -> tuple[ReferenceEntry, ...]:
    """All reference cells, in asset order."""
    return _load()[0]


def lookup(table_id: int, alpha: float, rho: float, quantity: str) -> float:
    """Value of one reference cell; KeyError names the missing cell."""
    key = _key(table_id, alpha, rho, quantity)
    try:
        return _load()[1][key]
    except KeyError:
        raise KeyError(
            f"no reference cell table_id={table_id}, alpha={alpha}, rho={rho}, quantity={quantity!r}"
        ) from None


def bt_relation(xi_bt: float, side: str) -> float:
    """Map a BT-style bound to that construction's U/L constant.

    side="upper" returns xi^2 - 1, side="lower" returns 1 - xi^2.
    """
    if xi_bt < 0.0:
        raise ValueError(f"bt_relation requires xi_bt >= 0, got {xi_bt!r}")
    if side == "upper":
        return xi_bt * xi_bt - 1.0
    if side == "lower":
        return 1.0 - xi_bt * xi_bt
    raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")


_KIND_SOURCES = {
    "upper-simple": ((1, "xi_uric_u"), (2, "xi_uric_u")),
    "upper-lifted": ((3, "xi_uric_u_low"), (4, "xi_uric_u_low")),
    "lower-simple": ((5, "xi_lric_l"),),
    "lower-lifted": ((7, "xi_lric_l_lift"),),
}


def reference_for_kind(kind: str, alpha: float, rho: float) -> float | None:
    """Reference bound for a (kind, alpha, rho) cell, or None where no source has it."""
    index = _load()[1]
    for table_id, quantity in _KIND_SOURCES.get(kind, ()):
        value = index.get(_key(table_id, alpha, rho, quantity))
        if value is not None:
            return value
    return None
