"""BTC/cash portfolio accounting under daily allocation targets.

States are immutable; every operation returns a new state. Marked value is
always the expression btc_units * mark_price + cash_usd, so the value
identity can never drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolation


@dataclass(frozen=True)
class PortfolioState:
    btc_units: float
    cash_usd: float
    mark_price: float

    def __post_init__(self):
        if self.btc_units < 0 or self.cash_usd < 0:
            raise InvariantViolation("negative units or cash")
        if self.mark_price <= 0:
            raise InvariantViolation("mark_price must be > 0")

    @property
    def value_usd(self) -> float:
        return self.btc_units * self.mark_price + self.cash_usd

    @classmethod
    def all_cash(cls, cash_usd: float, mark_price: float) -> "PortfolioState":
        return cls(btc_units=0.0, cash_usd=cash_usd, mark_price=mark_price)


def mark(state: PortfolioState, price: float) -> PortfolioState:
    """Revalue at a new price; units and cash untouched."""
    if price <= 0:
        raise InvariantViolation("mark price must be > 0")
    return PortfolioState(btc_units=state.btc_units, cash_usd=state.cash_usd, mark_price=price)


def _settle_units_cash(units: float, price: float, value_target: float) -> tuple[float, float]:
    """Pick (units, cash) whose marked value equals value_target bit-for-bit.

    Cash is the accounting plug: it absorbs float rounding from the unit
    computation so rebalancing never creates or destroys value. When the
    plug lands on a round-half-even tie, nudging the unit count by single
    ulps (a relative allocation error around 1e-16) breaks the tie.
    """
    lo, hi = units, units
    for attempt in range(64):
        cand = lo if attempt % 2 == 0 else hi
        btc_value = cand * price
        cash = value_target - btc_value
        if cash >= 0.0 and btc_value + cash == value_target:
            return cand, cash
        if attempt % 2 == 0:
            lo = math.nextafter(lo, 0.0)
        else:
            hi = math.nextafter(hi, math.inf)
    # unreachable in practice; keep the books consistent rather than exact
    btc_value = units * price
    return units, max(value_target - btc_value, 0.0)


def rebalance(state: PortfolioState, btc_fraction: float, price: float, fee_bps: float) -> PortfolioState:
    """Trade at `price` so the BTC value fraction meets `btc_fraction`.

    The target fraction lies in [0, 1]: no leverage, no shorts. It applies
    to the pre-trade value at `price`; a proportional fee of `fee_bps` basis
    points of traded notional comes out of cash. A buy that fees would push
    past available cash is scaled down so cash never goes negative. Sub-ulp
    targets (notional below 1e-12 of value) are treated as already met: no
    trade.
    """
    if not 0.0 <= btc_fraction <= 1.0:
        raise InvariantViolation(f"btc_fraction {btc_fraction} outside [0, 1]")
    if fee_bps < 0:
        raise InvariantViolation("fee_bps must be >= 0")
    if price <= 0:
        raise InvariantViolation("trade price must be > 0")
    value = state.btc_units * price + state.cash_usd
    held_btc_value = state.btc_units * price
    target_btc_value = btc_fraction * value
    notional = target_btc_value - held_btc_value
    if abs(notional) <= 1e-12 * value:
        return mark(state, price)

    rate = fee_bps / 10_000.0
    if notional > 0 and rate > 0:
        # cap the buy so notional + fee never exceeds available cash
        max_notional = state.cash_usd / (1.0 + rate)
        if notional > max_notional:
            notional = max_notional
            target_btc_value = held_btc_value + notional
    fee = abs(notional) * rate

    new_units = target_btc_value / price
    units, cash = _settle_units_cash(new_units, price, value - fee)
    return PortfolioState(btc_units=units, cash_usd=cash, mark_price=price)

