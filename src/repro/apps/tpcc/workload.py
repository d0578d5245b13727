"""TPC-C workload sampler for every measured system.

Entry points per variant (why they differ is the experiment):

===============  =====================================================
system           transaction entry
===============  =====================================================
``aeon``         NewOrder/OrderStatus on the Customer (sequenced at the
                 District dominator — multi-ownership), Payment and
                 StockLevel on the Warehouse, Delivery on the District.
``aeon_so``      identical code, Orders single-owned: Customer events
                 sequence at themselves, the Warehouse binds instead.
``eventwave``    the ``aeon_so`` wiring on the EventWave runtime (plus
                 the root total order).
``orleans``      every transaction enters the Warehouse grain, which
                 orchestrates the tree synchronously under its turn —
                 the strictly serializable but saturated variant.
``orleans_star`` direct per-grain calls without cross-grain atomicity
                 (the erroneous best-case variant).
===============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, Tuple

from ...core.events import CallSpec
from .loader import TpccDeployment

__all__ = ["TpccWorkload"]


@dataclass
class TpccWorkload:
    """Samples TPC-C transactions against a deployment."""

    deployment: TpccDeployment
    variant: str
    # One tuple per distinct ``(item, qty)`` order line: every Order with
    # an equal line holds the same object.
    _line_pool: Dict[Tuple[int, int], Tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False
    )

    def sample_op(self, rng: Random) -> Tuple[CallSpec, str]:
        """Draw one transaction ``(spec, tag)`` from the standard mix."""
        config = self.deployment.config
        roll = rng.random()
        if roll < config.p_new_order:
            return self._new_order(rng), "new_order"
        roll -= config.p_new_order
        if roll < config.p_payment:
            return self._payment(rng), "payment"
        roll -= config.p_payment
        if roll < config.p_order_status:
            return self._order_status(rng), "order_status"
        roll -= config.p_order_status
        if roll < config.p_delivery:
            return self._delivery(rng), "delivery"
        return self._stock_level(rng), "stock_level"

    # ------------------------------------------------------------------
    # Row pickers
    # ------------------------------------------------------------------
    def _pick(self, rng: Random):
        d_index = rng.randrange(len(self.deployment.districts))
        district = self.deployment.districts[d_index]
        customers = self.deployment.customers[d_index]
        customer = customers[rng.randrange(len(customers))]
        return d_index, district, customer

    def _lines(self, rng: Random) -> Tuple[Tuple[int, int], ...]:
        config = self.deployment.config
        n_lines = rng.randint(3, config.max_lines_per_order)
        pool = self._line_pool
        lines = []
        for _ in range(n_lines):
            line = (rng.randrange(config.n_items), rng.randint(1, 10))
            lines.append(pool.setdefault(line, line))
        return tuple(lines)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def _new_order(self, rng: Random) -> CallSpec:
        d_index, district, customer = self._pick(rng)
        lines = self._lines(rng)
        warehouse = self.deployment.warehouse
        if self.variant == "orleans":
            return warehouse.tree_new_order(district, customer, d_index, lines)
        if self.variant == "orleans_star":
            return customer.unsafe_new_order(lines, warehouse, district)
        co_owner = district if self.deployment.multi_ownership else None
        return customer.new_order(lines, warehouse, co_owner)

    def _payment(self, rng: Random) -> CallSpec:
        _d, district, customer = self._pick(rng)
        amount = rng.randint(1, 500)
        warehouse = self.deployment.warehouse
        if self.variant == "orleans":
            return warehouse.tree_payment(district, customer, amount)
        if self.variant == "orleans_star":
            return customer.unsafe_payment(amount, warehouse, district)
        return warehouse.payment(district, customer, amount)

    def _order_status(self, rng: Random) -> CallSpec:
        _d, _district, customer = self._pick(rng)
        if self.variant == "orleans":
            return self.deployment.warehouse.tree_order_status(customer)
        return customer.order_status()

    def _delivery(self, rng: Random) -> CallSpec:
        _d, district, customer = self._pick(rng)
        carrier = rng.randint(1, 10)
        if self.variant == "orleans":
            return self.deployment.warehouse.tree_delivery(district, carrier)
        if self.variant == "orleans_star":
            # Direct per-customer delivery: going through the District
            # grain would create a synchronous call cycle (deadlock).
            return customer.deliver_oldest(carrier)
        multi = self.deployment.multi_ownership
        return district.deliver(carrier, multi)

    def _stock_level(self, rng: Random) -> CallSpec:
        _d, district, _customer = self._pick(rng)
        threshold = rng.randint(10, 20)
        return self.deployment.warehouse.stock_level(district, threshold)
