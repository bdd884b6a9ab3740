import random
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from btagents.errors import InvariantViolation
from btagents.portfolio import (
    Allocation,
    FeeModel,
    PortfolioState,
    baseline_buy_and_hold,
    baseline_static_5050,
    mark,
    rebalance,
)

D = date(2024, 1, 1)


class TestRebalance:
    def test_all_cash_to_sixty_percent(self):
        state = PortfolioState.all_cash(D, 100.0, 50.0)
        after = rebalance(state, Allocation(0.6), 50.0)
        assert after.btc_units == pytest.approx(1.2, abs=1e-12)
        assert after.cash_usd == pytest.approx(40.0, abs=1e-12)
        assert after.value_usd == 100.0

    def test_noop_when_target_matches(self):
        state = PortfolioState(date=D, btc_units=1.2, cash_usd=40.0, mark_price=50.0)
        after = rebalance(state, Allocation(state.btc_fraction), 50.0)
        assert after.btc_units == state.btc_units
        assert after.cash_usd == state.cash_usd

    def test_fee_accounting_hand_oracle(self):
        # V=100 all cash, target 0.4 at price 50, 10 bps:
        # notional 40, fee 0.04, cash 100-40-0.04, units 0.8
        state = PortfolioState.all_cash(D, 100.0, 50.0)
        after = rebalance(state, Allocation(0.4), 50.0, FeeModel(fee_bps=10.0))
        assert after.btc_units == pytest.approx(0.8, abs=1e-12)
        assert after.cash_usd == pytest.approx(59.96, abs=1e-12)
        assert after.value_usd == pytest.approx(99.96, abs=1e-12)

    def test_full_allocation_with_fee_scales_down(self):
        state = PortfolioState.all_cash(D, 100.0, 50.0)
        after = rebalance(state, Allocation(1.0), 50.0, FeeModel(fee_bps=100.0))
        assert after.cash_usd >= 0.0
        # the whole bankroll goes to notional + fee
        assert after.btc_units * 50.0 + after.cash_usd == pytest.approx(
            100.0 - (after.btc_units * 50.0) * 0.01, abs=1e-9
        )

    def test_sell_side_fee_comes_from_proceeds(self):
        state = PortfolioState(date=D, btc_units=2.0, cash_usd=0.0, mark_price=50.0)
        after = rebalance(state, Allocation(0.0), 50.0, FeeModel(fee_bps=10.0))
        assert after.btc_units == pytest.approx(0.0, abs=1e-15)
        assert after.cash_usd == pytest.approx(100.0 - 100.0 * 0.001, abs=1e-9)

    def test_zero_fee_conserves_value_exactly(self):
        rng = random.Random(31)
        state = PortfolioState.all_cash(D, 12_345.0, 90.0)
        for _ in range(2000):
            price = rng.uniform(10.0, 100_000.0)
            marked = mark(state, D, price)
            value_before = marked.value_usd
            state = rebalance(marked, Allocation(rng.random()), price)
            assert state.value_usd == value_before

    def test_return_equals_fraction_times_btc_return(self):
        rng = random.Random(32)
        for _ in range(500):
            initial = rng.uniform(1_000.0, 100_000.0)
            p0 = rng.uniform(100.0, 90_000.0)
            p1 = p0 * (1.0 + rng.uniform(-0.2, 0.2))
            target = rng.random()
            state = rebalance(PortfolioState.all_cash(D, initial, p0), Allocation(target), p0)
            frac = state.btc_fraction
            marked = mark(state, D, p1)
            portfolio_return = marked.value_usd / state.value_usd - 1.0
            btc_return = p1 / p0 - 1.0
            assert portfolio_return == pytest.approx(frac * btc_return, abs=1e-12)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(InvariantViolation):
            Allocation(1.2)
        with pytest.raises(InvariantViolation):
            Allocation(-0.1)

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
        state = PortfolioState(date=D, btc_units=units, cash_usd=cash, mark_price=mark_price)
        fees = FeeModel(fee_bps=fee_bps)
        before = units * price + cash
        after = rebalance(state, Allocation(target), price, fees)
        assert after.btc_units >= 0.0 and after.cash_usd >= 0.0
        if fee_bps == 0.0:
            assert after.value_usd == before
        traded = abs(after.btc_units - units) * price
        assert 0.0 <= before - after.value_usd <= fees.rate * traded + 1e-9 * before

    def test_non_negative_state_always(self):
        rng = random.Random(33)
        state = PortfolioState.all_cash(D, 5_000.0, 60_000.0)
        for _ in range(1000):
            price = state.mark_price * (1.0 + rng.uniform(-0.1, 0.1))
            state = rebalance(state, Allocation(rng.random()), price, FeeModel(fee_bps=25.0))
            assert state.btc_units >= 0.0
            assert state.cash_usd >= 0.0


class TestMark:
    def test_price_move_changes_value_only(self):
        state = PortfolioState(date=D, btc_units=1.0, cash_usd=0.0, mark_price=100.0)
        marked = mark(state, D, 110.0)
        assert marked.value_usd == pytest.approx(110.0)
        assert marked.btc_units == 1.0
        assert marked.cash_usd == 0.0

    def test_all_cash_ignores_price(self):
        state = PortfolioState.all_cash(D, 500.0, 100.0)
        assert mark(state, D, 170.0).value_usd == 500.0

    def test_partial_exposure_scales_move(self):
        # 40% BTC, BTC +2.24% -> portfolio +0.896%
        state = rebalance(PortfolioState.all_cash(D, 10_000.0, 62_500.0), Allocation(0.4), 62_500.0)
        marked = mark(state, D, 63_900.0)
        assert marked.value_usd / state.value_usd - 1.0 == pytest.approx(0.00896, abs=1e-9)

    def test_rejects_bad_price(self):
        state = PortfolioState.all_cash(D, 10.0, 1.0)
        with pytest.raises(InvariantViolation):
            mark(state, D, 0.0)


def dyadic_prices(rng, n, p0=32768.0):
    # ratios of the form k / 2**20 keep every baseline identity exact in floats
    return [p0 * (rng.randint(524288, 2097152) / 2**20) for _ in range(n)]


class TestBaselines:
    def test_buy_and_hold_two_points(self):
        values = baseline_buy_and_hold(100.0, [100.0, 110.0])
        assert values[0] == 100.0
        assert values[1] == pytest.approx(110.0, abs=1e-9)

    def test_buy_and_hold_flat(self):
        assert baseline_buy_and_hold(250.0, [70.0, 70.0, 70.0]) == [250.0, 250.0, 250.0]

    def test_buy_and_hold_return_equals_price_ratio(self):
        rng = random.Random(34)
        prices = dyadic_prices(rng, 50)
        values = baseline_buy_and_hold(8192.0, prices)
        assert values[-1] / values[0] - 1.0 == prices[-1] / prices[0] - 1.0

    def test_static_5050_is_half_exposure(self):
        values = baseline_static_5050(1000.0, [100.0, 120.0])
        assert values[-1] == pytest.approx(1100.0, abs=1e-9)

    def test_static_5050_flat(self):
        assert baseline_static_5050(1000.0, [50.0] * 4) == [1000.0] * 4

    def test_static_5050_equals_simulated_accounting(self):
        # buy half once at p0, hold: units = (V/2)/p0
        rng = random.Random(35)
        prices = dyadic_prices(rng, 60)
        initial = 8192.0
        values = baseline_static_5050(initial, prices)
        units = (initial / 2.0) / prices[0]
        simulated = [units * p + initial / 2.0 for p in prices]
        assert values == simulated

    def test_rejects_non_positive_prices(self):
        with pytest.raises(InvariantViolation):
            baseline_buy_and_hold(100.0, [10.0, -1.0])


class TestPortfolioStateInvariants:
    def test_negative_units_rejected(self):
        with pytest.raises(InvariantViolation):
            PortfolioState(date=D, btc_units=-0.1, cash_usd=0.0, mark_price=1.0)

    def test_value_identity_is_definitional(self):
        state = PortfolioState(date=D, btc_units=0.37, cash_usd=123.45, mark_price=61_000.0)
        assert state.value_usd == 0.37 * 61_000.0 + 123.45
