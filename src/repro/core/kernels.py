"""The numpy pipelines behind the PalTable hot paths.

The subset-table build (:class:`~repro.core.pal_table.PalTable`) spends
its time in two primitives: the predecessor-set **consumption DP** over
the ``2^T`` subset masks and the per-type **capacity/ratio sweep** that
turns consumed budget into audited-fraction products.  Both are pure
elementwise pipelines over preallocated buffers; the lazy table
(:class:`~repro.core.pal_table.LazyPalTable`) runs the same sweep one
prefix mask at a time (:func:`extension_products`).

Bit-compatibility contract
--------------------------
The eager and lazy tables, memo-filled and fresh builds, and
``workers>1`` and ``workers=1`` pricing are all compared bitwise.  Two
rules deliver that here:

* every kernel computes *elementwise products only* (subtract, divide,
  floor, clamp, multiply — each value depends on one scenario); and
* the closing pairwise expectation reduction ``(ratio * weights)
  .sum(axis=-1)`` lives in one place (:func:`expectation_reduce`):
  every kernel fills a product buffer and the caller reduces it there.

No telemetry is emitted from this module — ``repro.core.kernels`` is on
the RPL701 hot-loop list; callers instrument at their build boundaries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dp_consumed",
    "expectation_reduce",
    "extension_products",
    "type_products",
]


def expectation_reduce(products: np.ndarray) -> np.ndarray:
    """The one shared expectation reduction: pairwise sum over scenarios."""
    return products.sum(axis=-1)


def dp_consumed(
    contrib: np.ndarray,
    prev: np.ndarray,
    bit: np.ndarray,
    consumed: np.ndarray,
) -> None:
    """Fill ``consumed[mask, s]``, the budget the types in ``mask`` use.

    Lowest-set-bit recursion: ``consumed[mask] = consumed[prev[mask]] +
    contrib[:, bit[mask]]``.
    """
    consumed[0] = 0.0
    for mask in range(1, consumed.shape[0]):
        np.add(
            consumed[prev[mask]], contrib[:, bit[mask]],
            out=consumed[mask],
        )


def type_products(
    consumed: np.ndarray,
    rows: np.ndarray,
    cost: float,
    quota: float,
    effective: np.ndarray,
    zsafe: np.ndarray,
    weights: np.ndarray,
    budget: float,
    out: np.ndarray,
) -> None:
    """Expectation summands of one alert type over predecessor ``rows``.

    ``out[i, s] = (min(min(max(floor((budget - consumed[rows[i], s]) /
    cost), 0), quota), effective[s]) / zsafe[s]) * weights[s]``.
    """
    np.take(consumed, rows, axis=0, out=out)
    np.subtract(budget, out, out=out)
    np.divide(out, cost, out=out)
    np.floor(out, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, quota, out=out)
    np.minimum(out, effective[None, :], out=out)
    np.divide(out, zsafe[None, :], out=out)
    np.multiply(out, weights[None, :], out=out)


def extension_products(
    consumed: np.ndarray,
    costs: np.ndarray,
    quota: np.ndarray,
    effective: np.ndarray,
    zsafe: np.ndarray,
    weights: np.ndarray,
    budget: float,
    out: np.ndarray,
) -> None:
    """The lazy table's row sweep: :func:`type_products`' pipeline with
    one row per free type against a single consumed vector."""
    np.subtract(budget, consumed[None, :], out=out)
    np.divide(out, costs[:, None], out=out)
    np.floor(out, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, quota[:, None], out=out)
    np.minimum(out, effective, out=out)
    np.divide(out, zsafe, out=out)
    np.multiply(out, weights[None, :], out=out)
