"""The numpy table kernels against an interpreted loop reference.

The contract under test is the bit-compatibility promise of
:mod:`repro.core.kernels`: each pipeline fills exactly the product
buffer that a plain per-element loop computes, and the lazy table's
one-mask consumption step equals the loop recursion.  The loops below
are the reference; they state each kernel's algorithm one scenario at a
time.
"""

import numpy as np

from repro.core import LazyPalTable, kernels
from repro.core.pal_table import _mask_recursion
from repro.distributions import DiscretizedGaussian, JointCountModel


def dp_consumed_reference(contrib, prev, bit, consumed):
    n_masks, n_s = consumed.shape
    for s in range(n_s):
        consumed[0, s] = 0.0
    for mask in range(1, n_masks):
        p = prev[mask]
        j = bit[mask]
        for s in range(n_s):
            consumed[mask, s] = consumed[p, s] + contrib[s, j]


def type_products_reference(
    consumed, rows, cost, quota, effective, zsafe, weights, budget, out
):
    n_rows = rows.shape[0]
    n_s = out.shape[1]
    for i in range(n_rows):
        r = rows[i]
        for s in range(n_s):
            capacity = np.floor((budget - consumed[r, s]) / cost)
            if capacity < 0.0:
                capacity = 0.0
            audited = capacity
            if quota < audited:
                audited = quota
            if effective[s] < audited:
                audited = effective[s]
            out[i, s] = (audited / zsafe[s]) * weights[s]


def extension_products_reference(
    consumed, costs, quota, effective, zsafe, weights, budget, out
):
    n_free = out.shape[0]
    n_s = out.shape[1]
    for i in range(n_free):
        for s in range(n_s):
            capacity = np.floor((budget - consumed[s]) / costs[i])
            if capacity < 0.0:
                capacity = 0.0
            audited = capacity
            if quota[i] < audited:
                audited = quota[i]
            if effective[i, s] < audited:
                audited = effective[i, s]
            out[i, s] = (audited / zsafe[i, s]) * weights[s]


def consumed_step_reference(prev, contrib_col, out):
    for s in range(prev.shape[0]):
        out[s] = prev[s] + contrib_col[s]


def _kernel_inputs(rng, n_types=5, n_scenarios=203):
    """Realistic buffers for the kernel pipelines."""
    n_masks = 1 << n_types
    contrib = rng.uniform(0.0, 3.0, size=(n_scenarios, n_types))
    prev, bit = _mask_recursion(n_masks)
    masks = np.arange(n_masks)
    rows = masks[(masks >> 1) & 1 == 0]  # predecessor sets without t=1
    effective = rng.uniform(0.0, 8.0, size=(n_scenarios, n_types))
    zsafe = rng.uniform(0.5, 4.0, size=(n_scenarios, n_types))
    weights = rng.dirichlet(np.ones(n_scenarios))
    return {
        "n_masks": n_masks,
        "n_scenarios": n_scenarios,
        "contrib": contrib,
        "prev": prev,
        "bit": bit,
        "rows": rows,
        "effective": effective,
        "zsafe": zsafe,
        "weights": weights,
        "cost": 1.5,
        "quota": 4.0,
        "budget": float(1.5 * n_types),
    }


class TestKernelParity:
    def test_dp_consumed(self, rng):
        k = _kernel_inputs(rng)
        out = []
        for kernel in (dp_consumed_reference, kernels.dp_consumed):
            consumed = np.empty((k["n_masks"], k["n_scenarios"]))
            kernel(k["contrib"], k["prev"], k["bit"], consumed)
            out.append(consumed)
        assert np.array_equal(*out)

    def test_type_products(self, rng):
        k = _kernel_inputs(rng)
        consumed = np.empty((k["n_masks"], k["n_scenarios"]))
        kernels.dp_consumed(k["contrib"], k["prev"], k["bit"], consumed)
        out = []
        for kernel in (type_products_reference, kernels.type_products):
            buf = np.empty((k["rows"].shape[0], k["n_scenarios"]))
            kernel(
                consumed,
                k["rows"],
                k["cost"],
                k["quota"],
                np.ascontiguousarray(k["effective"][:, 1]),
                np.ascontiguousarray(k["zsafe"][:, 1]),
                k["weights"],
                k["budget"],
                buf,
            )
            out.append(buf)
        assert np.array_equal(*out)

    def test_extension_products(self, rng):
        k = _kernel_inputs(rng)
        consumed = rng.uniform(0.0, k["budget"], size=k["n_scenarios"])
        costs = np.array([1.0, 1.5, 2.0])
        quota = np.array([3.0, 5.0, 2.0])
        out = []
        for kernel in (
            extension_products_reference, kernels.extension_products
        ):
            buf = np.empty((3, k["n_scenarios"]))
            kernel(
                consumed,
                costs,
                quota,
                np.ascontiguousarray(k["effective"][:, :3].T),
                np.ascontiguousarray(k["zsafe"][:, :3].T),
                k["weights"],
                k["budget"],
                buf,
            )
            out.append(buf)
        assert np.array_equal(*out)

    def test_consumed_step(self, rng):
        # The lazy table's per-mask recursion, mask by mask.
        joint = JointCountModel(
            [DiscretizedGaussian(2.5 + 0.7 * t, 1.1) for t in range(4)]
        )
        scenarios = joint.sample_scenarios(203, rng)
        thresholds = rng.uniform(0.0, 6.0, size=4)
        costs = np.array([1.0, 1.5, 2.0, 1.25])
        lazy = LazyPalTable(thresholds, scenarios, costs, 6.0)
        contrib = np.minimum(
            thresholds, scenarios.counts.astype(np.float64) * costs
        )
        for mask in range(1, 16):
            low = mask & -mask
            expected = np.empty(203)
            consumed_step_reference(
                lazy._consumed_for(mask ^ low),
                contrib[:, low.bit_length() - 1],
                expected,
            )
            assert np.array_equal(lazy._consumed_for(mask), expected)
