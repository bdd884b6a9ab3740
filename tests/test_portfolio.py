import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from btagents.errors import InvariantViolation
from btagents.orchestrator import Ledger, RunConfig
from btagents.portfolio import PortfolioState, mark, rebalance
from btagents.reflection import AGENT_ROLES

def btc_fraction(state):
    """The share of the state's marked value held in BTC."""
    return state.btc_units * state.mark_price / state.value_usd


class TestRebalance:
    def test_all_cash_to_sixty_percent(self):
        state = PortfolioState.all_cash(100.0, 50.0)
        after = rebalance(state, 0.6, 50.0, 0.0)
        assert after.btc_units == pytest.approx(1.2, abs=1e-12)
        assert after.cash_usd == pytest.approx(40.0, abs=1e-12)
        assert after.value_usd == 100.0

    def test_noop_when_target_matches(self):
        state = PortfolioState(btc_units=1.2, cash_usd=40.0, mark_price=50.0)
        after = rebalance(state, btc_fraction(state), 50.0, 0.0)
        assert after.btc_units == state.btc_units
        assert after.cash_usd == state.cash_usd

    def test_fee_accounting_hand_oracle(self):
        # V=100 all cash, target 0.4 at price 50, 10 bps:
        # notional 40, fee 0.04, cash 100-40-0.04, units 0.8
        state = PortfolioState.all_cash(100.0, 50.0)
        after = rebalance(state, 0.4, 50.0, 10.0)
        assert after.btc_units == pytest.approx(0.8, abs=1e-12)
        assert after.cash_usd == pytest.approx(59.96, abs=1e-12)
        assert after.value_usd == pytest.approx(99.96, abs=1e-12)

    def test_full_allocation_with_fee_scales_down(self):
        state = PortfolioState.all_cash(100.0, 50.0)
        after = rebalance(state, 1.0, 50.0, 100.0)
        assert after.cash_usd >= 0.0
        # the whole bankroll goes to notional + fee
        assert after.btc_units * 50.0 + after.cash_usd == pytest.approx(
            100.0 - (after.btc_units * 50.0) * 0.01, abs=1e-9
        )

    def test_sell_side_fee_comes_from_proceeds(self):
        state = PortfolioState(btc_units=2.0, cash_usd=0.0, mark_price=50.0)
        after = rebalance(state, 0.0, 50.0, 10.0)
        assert after.btc_units == pytest.approx(0.0, abs=1e-15)
        assert after.cash_usd == pytest.approx(100.0 - 100.0 * 0.001, abs=1e-9)

    def test_zero_fee_conserves_value_exactly(self):
        rng = random.Random(31)
        state = PortfolioState.all_cash(12_345.0, 90.0)
        for _ in range(2000):
            price = rng.uniform(10.0, 100_000.0)
            marked = mark(state, price)
            value_before = marked.value_usd
            state = rebalance(marked, rng.random(), price, 0.0)
            assert state.value_usd == value_before

    def test_return_equals_fraction_times_btc_return(self):
        rng = random.Random(32)
        for _ in range(500):
            initial = rng.uniform(1_000.0, 100_000.0)
            p0 = rng.uniform(100.0, 90_000.0)
            p1 = p0 * (1.0 + rng.uniform(-0.2, 0.2))
            target = rng.random()
            state = rebalance(PortfolioState.all_cash(initial, p0), target, p0, 0.0)
            frac = btc_fraction(state)
            marked = mark(state, p1)
            portfolio_return = marked.value_usd / state.value_usd - 1.0
            btc_return = p1 / p0 - 1.0
            assert portfolio_return == pytest.approx(frac * btc_return, abs=1e-12)

    def test_rejects_out_of_range_target(self):
        for target in (1.2, -0.1):
            with pytest.raises(InvariantViolation, match=rf"btc_fraction {target} outside \[0, 1\]"):
                rebalance(PortfolioState.all_cash(10.0, 1.0), target, 1.0, 0.0)

    def test_rejects_negative_fee(self):
        with pytest.raises(InvariantViolation, match="fee_bps must be >= 0"):
            rebalance(PortfolioState.all_cash(10.0, 1.0), 0.5, 1.0, -5.0)

    def test_checks_the_fraction_then_the_fee_then_the_price(self):
        state = PortfolioState.all_cash(10.0, 1.0)
        for fraction, price, fee_bps, message in [
            (1.5, 0.0, 0.0, r"btc_fraction 1.5 outside \[0, 1\]"),
            (1.5, 1.0, -5.0, r"btc_fraction 1.5 outside \[0, 1\]"),
            (0.5, 0.0, -5.0, "fee_bps must be >= 0"),
        ]:
            with pytest.raises(InvariantViolation, match=message):
                rebalance(state, fraction, price, fee_bps)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        units=st.floats(0.0, 1e4),
        cash=st.floats(0.0, 1e9),
        mark_price=st.floats(1e-2, 1e7),
        price=st.floats(1e-2, 1e7),
        target=st.floats(0.0, 1.0),
        fee_bps=st.one_of(st.just(0.0), st.floats(0.0, 9999.0)),
    )
    def test_value_is_conserved_up_to_the_fee(self, units, cash, mark_price, price, target, fee_bps):
        state = PortfolioState(btc_units=units, cash_usd=cash, mark_price=mark_price)
        before = units * price + cash
        after = rebalance(state, target, price, fee_bps)
        assert after.btc_units >= 0.0 and after.cash_usd >= 0.0
        if fee_bps == 0.0:
            assert after.value_usd == before
        traded = abs(after.btc_units - units) * price
        assert 0.0 <= before - after.value_usd <= fee_bps / 10_000.0 * traded + 1e-9 * before

    def test_non_negative_state_always(self):
        rng = random.Random(33)
        state = PortfolioState.all_cash(5_000.0, 60_000.0)
        for _ in range(1000):
            price = state.mark_price * (1.0 + rng.uniform(-0.1, 0.1))
            state = rebalance(state, rng.random(), price, 25.0)
            assert state.btc_units >= 0.0
            assert state.cash_usd >= 0.0

    @pytest.mark.parametrize("price", [0.0, -1.0])
    def test_rejects_non_positive_price(self, price):
        with pytest.raises(InvariantViolation, match="trade price must be > 0"):
            rebalance(PortfolioState.all_cash(10.0, 1.0), 0.5, price, 0.0)


class TestMark:
    def test_price_move_changes_value_only(self):
        state = PortfolioState(btc_units=1.0, cash_usd=0.0, mark_price=100.0)
        marked = mark(state, 110.0)
        assert marked.value_usd == pytest.approx(110.0)
        assert marked.btc_units == 1.0
        assert marked.cash_usd == 0.0

    def test_all_cash_ignores_price(self):
        state = PortfolioState.all_cash(500.0, 100.0)
        assert mark(state, 170.0).value_usd == 500.0

    def test_partial_exposure_scales_move(self):
        # 40% BTC, BTC +2.24% -> portfolio +0.896%
        state = rebalance(PortfolioState.all_cash(10_000.0, 62_500.0), 0.4, 62_500.0, 0.0)
        marked = mark(state, 63_900.0)
        assert marked.value_usd / state.value_usd - 1.0 == pytest.approx(0.00896, abs=1e-9)

    def test_rejects_bad_price(self):
        state = PortfolioState.all_cash(10.0, 1.0)
        with pytest.raises(InvariantViolation):
            mark(state, 0.0)


def dyadic_prices(rng, n, p0=32768.0):
    # ratios of the form k / 2**20 keep every baseline identity exact in floats
    return [p0 * (rng.randint(524288, 2097152) / 2**20) for _ in range(n)]


def settled_baselines(initial, closes):
    """The `baseline` field of each day `Ledger.settle` values when the run buys at
    closes[0] and day i trades at closes[i] and is marked at closes[i + 1]."""
    start = date(2024, 1, 1)
    ledger = Ledger(RunConfig(start=start, end=start, initial_value_usd=initial), closes[0])
    entries = {role: {"allocation": 0.5, "state": "neutral"} for role in AGENT_ROLES}
    return [
        ledger.settle(start + timedelta(days=i), entries, close_t, close_next)["baseline"]
        for i, (close_t, close_next) in enumerate(zip(closes, closes[1:]))
    ]


@pytest.mark.parametrize(
    "fee_bps, closes, value",
    [
        (0.0, [1.0, 1e100] * 4, "inf"),  # all in BTC on each rise, all in cash on each fall
        (9999.0, [1.0] * 200, "0.0"),  # each day's full switch pays 99.99% in fees
    ],
    ids=["past the float range", "down to 0"],
)
def test_book_value_that_is_not_a_positive_float_is_an_error(fee_bps, closes, value):
    start = date(2024, 1, 1)
    ledger = Ledger(RunConfig(start=start, end=start, fee_bps=fee_bps), closes[0])
    with pytest.raises(InvariantViolation, match=rf"^\S+: the quants book's value {value} is not a positive float$"):
        for i, (close_t, close_next) in enumerate(zip(closes, closes[1:])):
            entries = {role: {"allocation": float(i % 2 == 0), "state": "neutral"} for role in AGENT_ROLES}
            ledger.settle(start + timedelta(days=i), entries, close_t, close_next)


class TestBaselines:
    def test_buy_and_hold_two_points(self):
        (day,) = settled_baselines(100.0, [100.0, 110.0])
        assert day["buyhold_value"] == pytest.approx(110.0, abs=1e-9)

    def test_buy_and_hold_flat(self):
        days = settled_baselines(250.0, [70.0, 70.0, 70.0])
        assert [d["buyhold_value"] for d in days] == [250.0, 250.0]

    def test_buy_and_hold_return_equals_price_ratio(self):
        rng = random.Random(34)
        prices = dyadic_prices(rng, 50)
        days = settled_baselines(8192.0, prices)
        assert days[-1]["buyhold_value"] / 8192.0 - 1.0 == prices[-1] / prices[0] - 1.0

    def test_static_5050_is_half_exposure(self):
        days = settled_baselines(1000.0, [100.0, 100.0, 120.0])
        assert days[-1]["static5050_value"] == pytest.approx(1100.0, abs=1e-9)
        assert days[-1]["day_return_5050"] == pytest.approx(0.1, abs=1e-12)

    def test_static_5050_flat(self):
        days = settled_baselines(1000.0, [50.0] * 4)
        assert [d["static5050_value"] for d in days] == [1000.0] * 3
        assert [d["day_return_5050"] for d in days] == [0.0] * 3

    def test_static_5050_equals_simulated_accounting(self):
        # buy half once at p0, hold: units = (V/2)/p0
        rng = random.Random(35)
        prices = dyadic_prices(rng, 60)
        initial = 8192.0
        days = settled_baselines(initial, prices)
        units = (initial / 2.0) / prices[0]
        simulated = [units * p + initial / 2.0 for p in prices[1:]]
        assert [d["static5050_value"] for d in days] == simulated

    @pytest.mark.parametrize("initial", [8192.0, 10_000.0])
    def test_each_day_equals_the_closed_forms(self, initial):
        # with p0 = 2**15 and dyadic closes, V0 / p0 BTC valued at a close is exact
        rng = random.Random(36)
        closes = [32768.0, *dyadic_prices(rng, 199)]
        units = initial / closes[0]
        for day, (close_t, close_next) in zip(settled_baselines(initial, closes), zip(closes, closes[1:])):
            assert day["buyhold_value"] == units * close_next
            assert day["static5050_value"] == units / 2.0 * close_next + initial / 2.0
            now = units / 2.0 * close_t + initial / 2.0
            assert day["day_return_5050"] == day["static5050_value"] / now - 1.0

    def test_rejects_non_positive_prices(self):
        # a non-positive first or marking close stops the run before a baseline is valued
        for closes in ([10.0, -1.0], [10.0, 10.0, 0.0], [0.0, 10.0], [-5.0, 10.0]):
            with pytest.raises(InvariantViolation):
                settled_baselines(100.0, closes)


class TestPortfolioStateInvariants:
    def test_negative_units_rejected(self):
        with pytest.raises(InvariantViolation):
            PortfolioState(btc_units=-0.1, cash_usd=0.0, mark_price=1.0)

    def test_value_identity_is_definitional(self):
        state = PortfolioState(btc_units=0.37, cash_usd=123.45, mark_price=61_000.0)
        assert state.value_usd == 0.37 * 61_000.0 + 123.45
