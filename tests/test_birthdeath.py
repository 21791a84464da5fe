"""Birth/death proposal mechanics, acceptance ratios and their identities."""
import math

import numpy as np
import pytest

from transjump.birthdeath import (
    BirthDeathSchedule,
    BoDDetail,
    SortedRestriction,
    birth_propose_sorted,
    birth_propose_unsorted,
    bod_move_set,
    death_propose,
    move_log_ratio,
    pmf_component_proposal,
    uniform_component_proposal,
)
from transjump.core import (
    BrokenKernelError,
    ConfigurationError,
    VarDimState,
    rng_stream,
)
from transjump.sinusoid import PriorOnlyTarget, SinusoidPosterior

NEG_INF = float("-inf")


def random_model(rng, n_obs=24, k_max=8):
    y = rng.standard_normal(n_obs)
    return SinusoidPosterior(y, lam=float(rng.uniform(0.5, 6.0)),
                             delta2=float(rng.uniform(1.0, 200.0)), k_max=k_max)


def random_state(rng, k):
    omega = np.sort(rng.uniform(0.1, math.pi - 0.1, size=k))
    return VarDimState(tuple(omega))


def order(k):
    """A state of model order k."""
    return VarDimState((0.5,) * k)


class TestScheduleProbabilities:
    def test_birth_full_when_prior_ratio_exceeds_one(self):
        sched = BirthDeathSchedule.green(5.0, 32, 0.25)
        assert sched.p_birth(order(0)) == 0.25
        assert sched.p_death(order(0)) == 0.0

    def test_birth_scaled_by_prior_ratio(self):
        sched = BirthDeathSchedule.green(5.0, 32, 0.25)
        assert sched.p_birth(order(7)) == pytest.approx(0.25 * 5.0 / 8.0, rel=1e-15)

    def test_death_zero_at_origin_birth_zero_at_cap(self):
        sched = BirthDeathSchedule.green(2.0, 8, 0.4)
        assert sched.p_death(order(0)) == 0.0
        assert sched.p_birth(order(8)) == 0.0

    def test_ratio_identity_every_order(self):
        """p_d(k+1)/p_b(k) = (k+1)/lam for every k below the cap."""
        for lam in (0.7, 2.5, 5.0, 11.0):
            sched = BirthDeathSchedule.green(lam, 32, 0.25)
            for k in range(32):
                p_b = sched.p_birth(order(k))
                p_d_next = sched.p_death(order(k + 1))
                assert p_d_next / p_b == pytest.approx((k + 1) / lam, rel=1e-12)

    def test_mass_left_for_within_model_moves(self):
        sched = BirthDeathSchedule.green(3.0, 8, 0.5)
        for k in range(9):
            assert sched.p_birth(order(k)) + sched.p_death(order(k)) <= 1.0 + 1e-15

    def test_invalid_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(3.0, 8, 0.75)
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(-1.0, 8, 0.25)


class TestBirthProposeUnsorted:
    def test_from_empty_state_single_slot(self):
        rng = rng_stream(30)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        out = birth_propose_unsorted(VarDimState(), sched, target, rng)
        assert out.proposed.k == 1
        assert out.detail.index == 0
        assert out.proposed.components == (out.detail.value,)

    def test_insertion_preserves_order_of_others(self):
        rng = rng_stream(31)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        x = VarDimState((1.0, 2.0))
        for _ in range(50):
            out = birth_propose_unsorted(x, sched, target, rng)
            d = out.detail
            rest = list(out.proposed.components)
            assert rest.pop(d.index) == d.value
            assert tuple(rest) == x.components

    def test_insertion_slot_uniform(self):
        """Slot counts for k=2 stay within 3-sigma of uniform over 1e5 draws."""
        rng = rng_stream(32)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        x = VarDimState((1.0, 2.0))
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[birth_propose_unsorted(x, sched, target, rng).detail.index] += 1
        band = 3.0 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(counts / n - 1 / 3) < band)

    def test_sampler_outside_support_is_hard_error(self):
        bad = uniform_component_proposal()
        bad = type(bad)(sample=lambda rng: 4.0, log_density=bad.log_density)
        sched = BirthDeathSchedule.green(2.0, 8, 0.5, proposal=bad)
        with pytest.raises(BrokenKernelError):
            birth_propose_unsorted(VarDimState(), sched, PriorOnlyTarget(2.0, 8),
                                   rng_stream(33))


class TestDeathPropose:
    def test_single_component_to_empty(self):
        rng = rng_stream(34)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        out = death_propose(VarDimState((0.7,)), sched, target, rng)
        assert out.proposed == VarDimState()
        assert out.detail.value == 0.7

    def test_removal_keeps_others_in_order(self):
        rng = rng_stream(35)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        x = VarDimState((1.0, 2.0, 3.0))
        seen = set()
        for _ in range(200):
            out = death_propose(x, sched, target, rng)
            seen.add(out.detail.index)
            expect = list(x.components)
            expect.pop(out.detail.index)
            assert out.proposed.components == tuple(expect)
        assert seen == {0, 1, 2}

    def test_removal_index_uniform(self):
        rng = rng_stream(36)
        target = PriorOnlyTarget(3.0, 8)
        sched = BirthDeathSchedule.green(3.0, 8)
        x = VarDimState((0.5, 1.0, 1.5, 2.0))
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[death_propose(x, sched, target, rng).detail.index] += 1
        band = 3.0 * math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(counts / n - 0.25) < band)

    def test_death_at_empty_state_is_hard_error(self):
        sched = BirthDeathSchedule.green(2.0, 8)
        with pytest.raises(BrokenKernelError):
            death_propose(VarDimState(), sched, PriorOnlyTarget(2.0, 8), rng_stream(37))


class TestBodLogRatio:
    """move_log_ratio under the default (unsorted, corrected) schedule."""

    def test_zero_when_everything_balances(self):
        """Equal densities, matched schedule and unit proposal density give ratio 0."""
        class Flat:
            def log_density(self, x):
                return 0.0

        # p_b(1) = p_d(2) = 0.3; the detail carries log q(s*) = 0
        sched = BirthDeathSchedule.green(2.0, 8, 0.3)
        x = VarDimState((0.5,))
        x_new = x.insert(1, 0.25)
        detail = BoDDetail("birth", 1, 0.25, 0.0)
        assert move_log_ratio(x, x_new, detail, sched, Flat()) == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetry_with_reverse_death(self):
        """Reverse-move log ratio is the exact negation, across random setups."""
        rng = rng_stream(38)
        for _ in range(100):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            x = random_state(rng, int(rng.integers(0, 5)))
            out = birth_propose_unsorted(x, sched, model, rng)
            if out.log_ratio == NEG_INF:
                continue
            back = BoDDetail("death", out.detail.index, out.detail.value, out.detail.log_q)
            reverse = move_log_ratio(out.proposed, x, back, sched, model)
            assert reverse == pytest.approx(-out.log_ratio, abs=1e-12)

    def test_location_terms_cancel_against_naive_form(self):
        """Matches a deliberately naive ratio carrying both 1/(k+1) location terms."""
        rng = rng_stream(39)
        for _ in range(100):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            k = int(rng.integers(0, 5))
            x = random_state(rng, k)
            out = birth_propose_unsorted(x, sched, model, rng)
            if out.log_ratio == NEG_INF:
                continue
            naive = (model.log_density(out.proposed) - model.log_density(x)
                     + (math.log(sched.p_death(out.proposed)) - math.log(k + 1))
                     - (math.log(sched.p_birth(x)) - math.log(k + 1))
                     - out.detail.log_q)
            assert out.log_ratio == pytest.approx(naive, abs=1e-12)

    def test_zero_proposal_density_is_hard_error(self):
        sched = BirthDeathSchedule.green(2.0, 8)
        x = VarDimState((0.5,))
        detail = BoDDetail("birth", 0, 0.2, NEG_INF)
        with pytest.raises(BrokenKernelError):
            move_log_ratio(x, x.insert(0, 0.2), detail, sched, PriorOnlyTarget(2.0, 8))


class TestLegacyLogRatio:
    """move_log_ratio under a legacy schedule against the corrected one."""

    def test_equal_to_corrected_for_birth_from_empty(self):
        rng = rng_stream(40)
        model = random_model(rng)
        sched = BirthDeathSchedule.green(model.lam, model.k_max)
        legacy_sched = BirthDeathSchedule.green(model.lam, model.k_max, ratio_mode="legacy")
        x = VarDimState()
        out = birth_propose_unsorted(x, sched, model, rng)
        legacy = move_log_ratio(x, out.proposed, out.detail, legacy_sched, model)
        assert legacy == pytest.approx(out.log_ratio, abs=1e-12)

    def test_birth_offset_is_log_k_plus_one(self):
        rng = rng_stream(41)
        for k in (1, 2, 3, 5):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            legacy_sched = BirthDeathSchedule.green(model.lam, model.k_max, ratio_mode="legacy")
            x = random_state(rng, k)
            out = birth_propose_unsorted(x, sched, model, rng)
            legacy = move_log_ratio(x, out.proposed, out.detail, legacy_sched, model)
            assert legacy - out.log_ratio == pytest.approx(-math.log(k + 1), abs=1e-12)

    def test_death_offset_is_plus_log_k(self):
        rng = rng_stream(42)
        for k in (1, 2, 4):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            legacy_sched = BirthDeathSchedule.green(model.lam, model.k_max, ratio_mode="legacy")
            x = random_state(rng, k)
            out = death_propose(x, sched, model, rng)
            legacy = move_log_ratio(x, out.proposed, out.detail, legacy_sched, model)
            assert legacy - out.log_ratio == pytest.approx(math.log(k), abs=1e-12)


class TestSortedKernel:
    def test_insertion_at_unique_sorted_slot(self):
        rng = rng_stream(43)
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        x = VarDimState((0.3, 0.9))
        for _ in range(100):
            out = birth_propose_sorted(x, sched, target, rng)
            assert out.proposed.is_sorted()
            assert out.proposed.components[out.detail.index] == out.detail.value

    def test_empty_state_slot_zero(self):
        rng = rng_stream(44)
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        out = birth_propose_sorted(VarDimState(), sched, target, rng)
        assert out.detail.index == 0

    def test_tie_rejects_surely(self):
        prop = pmf_component_proposal([0.5, 1.5], [0.5, 0.5])
        sched = BirthDeathSchedule.green(2.0, 8, 0.4, proposal=prop, representation="sorted")
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        x = VarDimState((0.5, 1.5))
        rng = rng_stream(45)
        outs = [birth_propose_sorted(x, sched, target, rng) for _ in range(20)]
        assert all(o.log_ratio == NEG_INF for o in outs)

    def test_unsorted_input_is_hard_error(self):
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        with pytest.raises(BrokenKernelError):
            birth_propose_sorted(VarDimState((1.0, 0.5)), sched, target, rng_stream(46))
        detail = BoDDetail("birth", 0, 0.1, 0.0)
        with pytest.raises(BrokenKernelError):
            move_log_ratio(VarDimState((1.0, 0.5)), VarDimState((0.1, 1.0, 0.5)),
                           detail, sched, target)

    def test_insertion_slot_probability_matches_gap(self):
        """Middle-slot hits over 1e5 draws match (0.9-0.3)/pi within 3 sigma."""
        rng = rng_stream(47)
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        x = VarDimState((0.3, 0.9))
        p_gap = (0.9 - 0.3) / math.pi
        n = 100_000
        hits = sum(birth_propose_sorted(x, sched, target, rng).detail.index == 1
                   for _ in range(n))
        band = 3.0 * math.sqrt(p_gap * (1 - p_gap) / n)
        assert abs(hits / n - p_gap) < band

    def test_ratio_equals_unsorted_for_exchangeable_target(self):
        """Sorted ratio on k!-rescaled target equals the unsorted ratio exactly."""
        rng = rng_stream(48)
        for _ in range(100):
            model = random_model(rng)
            usched = BirthDeathSchedule.green(model.lam, model.k_max)
            ssched = BirthDeathSchedule.green(model.lam, model.k_max,
                                              representation="sorted")
            x = random_state(rng, int(rng.integers(0, 5)))
            out = birth_propose_sorted(x, ssched, SortedRestriction(model), rng)
            if out.log_ratio == NEG_INF:
                continue
            unsorted_ratio = move_log_ratio(
                x, out.proposed,
                BoDDetail("birth", out.detail.index, out.detail.value, out.detail.log_q),
                usched, model)
            assert out.log_ratio == pytest.approx(unsorted_ratio, abs=1e-12)

    def test_flat_sorted_target_birth_ratio_closed_form(self):
        """Constant density, matched p_b/p_d, uniform q, k=0 birth: ratio = log(pi)."""
        class FlatSorted:
            def log_density(self, x):
                return 0.0 if x.is_sorted() else NEG_INF

        # p_b(0) = p_d(1) = 0.3
        sched = BirthDeathSchedule.green(1.0, 8, 0.3, representation="sorted")
        rng = rng_stream(49)
        out = birth_propose_sorted(VarDimState(), sched, FlatSorted(), rng)
        # -log q(s*) - log(0+1) with q = 1/pi
        assert out.log_ratio == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_sorted_death_antisymmetry(self):
        rng = rng_stream(50)
        model = random_model(rng)
        target = SortedRestriction(model)
        sched = BirthDeathSchedule.green(model.lam, model.k_max,
                                         representation="sorted")
        x = random_state(rng, 3)
        out = death_propose(x, sched, target, rng)
        back = BoDDetail("birth", out.detail.index, out.detail.value, out.detail.log_q)
        reverse = move_log_ratio(out.proposed, x, back, sched, target)
        assert reverse == pytest.approx(-out.log_ratio, abs=1e-12)


class TestMoveSetFactory:
    def test_weights_sum_to_one_at_every_order(self):
        target = PriorOnlyTarget(3.0, 6)
        sched = BirthDeathSchedule.green(3.0, 6)
        moves = bod_move_set(target, sched)
        for k in range(7):
            x = VarDimState(tuple(0.1 + 0.3 * j for j in range(k)))
            assert sum(m.weight(x) for m in moves.moves) == pytest.approx(1.0, abs=1e-15)

    def test_identity_move_rejects_surely_without_drawing(self):
        target = PriorOnlyTarget(3.0, 6)
        moves = bod_move_set(target, BirthDeathSchedule.green(3.0, 6))
        rng = rng_stream(52)
        before = rng.bit_generator.state
        x = VarDimState((0.4, 1.2))
        out = moves.by_label["none"].propose(x, rng)
        assert out.proposed is x
        assert out.log_ratio == NEG_INF
        assert rng.bit_generator.state == before

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(2.0, 8, representation="diagonal")
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(2.0, 8, ratio_mode="fixed")
