"""AlertType and AlertTypeSet."""

import numpy as np
import pytest

from repro.core import AlertType, AlertTypeSet


class TestAlertType:
    def test_defaults(self):
        t = AlertType("vip-access")
        assert t.audit_cost == 1.0
        assert t.description == ""

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            AlertType("")

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            AlertType("x", audit_cost=0.0)
        with pytest.raises(ValueError):
            AlertType("x", audit_cost=-1.0)

    def test_rejects_nan_cost(self):
        with pytest.raises(ValueError, match="must be positive, got nan"):
            AlertType("x", audit_cost=float("nan"))

    def test_frozen(self):
        t = AlertType("x")
        with pytest.raises(AttributeError):
            t.audit_cost = 2.0


class TestAlertTypeSet:
    def test_from_costs(self):
        ts = AlertTypeSet.from_costs([1.0, 2.5])
        assert len(ts) == 2
        assert ts.names == ("type-1", "type-2")
        assert np.allclose(ts.costs, [1.0, 2.5])

    def test_index_of(self):
        ts = AlertTypeSet.from_costs([1, 1, 1])
        assert ts.index_of("type-2") == 1
        with pytest.raises(ValueError):
            ts.index_of("nope")

    def test_iteration_and_getitem(self):
        ts = AlertTypeSet.from_costs([1, 2])
        assert [t.name for t in ts] == ["type-1", "type-2"]
        assert ts[1].audit_cost == 2.0

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AlertTypeSet((AlertType("a"), AlertType("a")))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AlertTypeSet(())
