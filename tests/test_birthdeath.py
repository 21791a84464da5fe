"""Birth/death proposal mechanics, acceptance ratios and their identities."""
import math

import numpy as np
import pytest

from transjump.birthdeath import (
    BirthDeathSchedule,
    SortedRestriction,
    birth_propose_sorted,
    birth_propose_unsorted,
    bod_move_set,
    death_propose,
    is_sorted,
    move_log_ratio,
    pmf_component_proposal,
    uniform_component_proposal,
)
from transjump.core import (
    BrokenKernelError,
    ConfigurationError,
    rng_stream,
)
from transjump.sinusoid import PriorOnlyTarget, SinusoidPosterior

NEG_INF = float("-inf")


def random_model(rng, n_obs=24, k_max=8):
    y = rng.standard_normal(n_obs)
    return SinusoidPosterior(y, lam=float(rng.uniform(0.5, 6.0)),
                             delta2=float(rng.uniform(1.0, 200.0)), k_max=k_max)


def random_state(rng, k):
    return tuple(np.sort(rng.uniform(0.1, math.pi - 0.1, size=k)))


def order(k):
    """A state of model order k."""
    return (0.5,) * k


def slot(x, x_new):
    """The slot a birth filled or a death emptied: the first index where x and x' differ."""
    short = min(len(x), len(x_new))
    return next((i for i in range(short) if x[i] != x_new[i]), short)


def log_q(sched, x, x_new):
    """log q(s*) of the component born or removed between x and x'."""
    longer = x_new if len(x_new) > len(x) else x
    return sched.proposal.log_density(longer[slot(x, x_new)])


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
        # k_max must be a nonnegative integer: 2.5 would truncate at 2, and -3
        # would give a schedule whose p_b and p_d are 0 everywhere.
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(5.0, 2.5)
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(5.0, -3)


class TestPmfComponentProposal:
    @pytest.mark.parametrize("points, weights", [
        pytest.param((1.0, 1.0, 2.0), (0.25, 0.25, 0.5), id="duplicate-point"),
        pytest.param((math.nan, 1.0), (0.5, 0.5), id="nan-point"),
        pytest.param((1.0, 2.0), (math.nan, 0.5), id="nan-weight"),
        pytest.param((1.0, 2.0), (math.inf, 0.5), id="inf-weight"),
        pytest.param((1.0, 2.0), (-0.5, 1.5), id="negative-weight"),
        pytest.param((1.0, 2.0), (0.0, 0.0), id="zero-total"),
        pytest.param((1.0, 2.0), (1.0,), id="length-mismatch"),
    ])
    def test_unusable_inputs_rejected_at_construction(self, points, weights):
        """A duplicate point would be sampled with its summed mass while log_density
        reads one entry's; a NaN point, or a NaN or inf weight, would fail only at a draw."""
        with pytest.raises(ConfigurationError):
            pmf_component_proposal(points, weights)


class TestBirthProposeUnsorted:
    def test_from_empty_state_single_slot(self):
        rng = rng_stream(30)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        proposed, _, _ = birth_propose_unsorted((), 0.0, sched, target, rng)
        assert len(proposed) == 1
        assert slot((), proposed) == 0
        # s* is the stream's first draw from q, uniform on (0, pi)
        assert proposed == (rng_stream(30).uniform(0.0, math.pi),)

    def test_insertion_preserves_order_of_others(self):
        rng = rng_stream(31)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        x = (1.0, 2.0)
        seen = set()
        twin = rng_stream(31)  # replays the draws: s* ~ q, then the slot
        for _ in range(50):
            proposed, _, _ = birth_propose_unsorted(x, target.log_density(x), sched, target, rng)
            s_star, index = twin.uniform(0.0, math.pi), int(twin.integers(0, len(x) + 1))
            assert slot(x, proposed) == index
            seen.add(index)
            rest = list(proposed)
            assert rest.pop(index) == s_star
            assert tuple(rest) == x
        assert seen == {0, 1, 2}

    def test_insertion_slot_uniform(self):
        """Slot counts for k=2 stay within 3-sigma of uniform over 1e5 draws."""
        rng = rng_stream(32)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        x = (1.0, 2.0)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            proposed, _, _ = birth_propose_unsorted(x, target.log_density(x), sched, target, rng)
            counts[slot(x, proposed)] += 1
        band = 3.0 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(counts / n - 1 / 3) < band)

    def test_sampler_outside_support_is_hard_error(self):
        bad = uniform_component_proposal()
        bad = type(bad)(sample=lambda rng: 4.0, log_density=bad.log_density)
        sched = BirthDeathSchedule.green(2.0, 8, 0.5, proposal=bad)
        with pytest.raises(BrokenKernelError):
            birth_propose_unsorted((), 0.0, sched, PriorOnlyTarget(2.0, 8), rng_stream(33))


class TestDeathPropose:
    def test_single_component_to_empty(self):
        rng = rng_stream(34)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        x = (0.7,)
        proposed, _, _ = death_propose(x, target.log_density(x), sched, target, rng)
        assert proposed == ()
        assert x[slot(x, proposed)] == 0.7

    def test_removal_keeps_others_in_order(self):
        rng = rng_stream(35)
        target = PriorOnlyTarget(2.0, 8)
        sched = BirthDeathSchedule.green(2.0, 8)
        x = (1.0, 2.0, 3.0)
        seen = set()
        twin = rng_stream(35)  # replays the draw of the removal index
        for _ in range(200):
            proposed, _, _ = death_propose(x, target.log_density(x), sched, target, rng)
            index = int(twin.integers(0, len(x)))
            assert slot(x, proposed) == index
            seen.add(index)
            expect = list(x)
            expect.pop(index)
            assert proposed == tuple(expect)
        assert seen == {0, 1, 2}

    def test_removal_index_uniform(self):
        rng = rng_stream(36)
        target = PriorOnlyTarget(3.0, 8)
        sched = BirthDeathSchedule.green(3.0, 8)
        x = (0.5, 1.0, 1.5, 2.0)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            proposed, _, _ = death_propose(x, target.log_density(x), sched, target, rng)
            counts[slot(x, proposed)] += 1
        band = 3.0 * math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(counts / n - 0.25) < band)

    def test_death_at_empty_state_is_hard_error(self):
        sched = BirthDeathSchedule.green(2.0, 8)
        with pytest.raises(BrokenKernelError):
            death_propose((), 0.0, sched, PriorOnlyTarget(2.0, 8), rng_stream(37))


class TestBodLogRatio:
    """move_log_ratio under the default (unsorted, corrected) schedule."""

    def test_zero_when_everything_balances(self):
        """Equal densities, matched schedule and unit proposal density give ratio 0."""
        class Flat:
            def log_density(self, x):
                return 0.0

        # p_b(1) = p_d(2) = 0.3 and log q(s*) = 0
        sched = BirthDeathSchedule.green(2.0, 8, 0.3)
        x = (0.5,)
        x_new = (0.5, 0.25)
        target = Flat()
        ratio, lt_new = move_log_ratio(x, 0.0, x_new, 0.0, sched, target)
        assert ratio == pytest.approx(0.0, abs=1e-15)
        assert lt_new == target.log_density(x_new)

    def test_antisymmetry_with_reverse_death(self):
        """Reverse-move log ratio is the exact negation, across random setups."""
        rng = rng_stream(38)
        for _ in range(100):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            x = random_state(rng, int(rng.integers(0, 5)))
            proposed, ratio, lt_new = birth_propose_unsorted(x, model.log_density(x), sched,
                                                             model, rng)
            if ratio == NEG_INF:
                continue
            reverse, lt_back = move_log_ratio(proposed, lt_new, x, log_q(sched, x, proposed),
                                              sched, model)
            assert reverse == pytest.approx(-ratio, abs=1e-12)
            assert lt_back == model.log_density(x)

    def test_location_terms_cancel_against_naive_form(self):
        """Matches a deliberately naive ratio carrying both 1/(k+1) location terms."""
        rng = rng_stream(39)
        for _ in range(100):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            k = int(rng.integers(0, 5))
            x = random_state(rng, k)
            proposed, ratio, _ = birth_propose_unsorted(x, model.log_density(x), sched, model,
                                                        rng)
            if ratio == NEG_INF:
                continue
            naive = (model.log_density(proposed) - model.log_density(x)
                     + (math.log(sched.p_death(proposed)) - math.log(k + 1))
                     - (math.log(sched.p_birth(x)) - math.log(k + 1))
                     - log_q(sched, x, proposed))
            assert ratio == pytest.approx(naive, abs=1e-12)

    def test_zero_proposal_density_is_hard_error(self):
        sched = BirthDeathSchedule.green(2.0, 8)
        x = (0.5,)
        with pytest.raises(BrokenKernelError):
            target = PriorOnlyTarget(2.0, 8)
            move_log_ratio(x, target.log_density(x), (0.2, 0.5), NEG_INF, sched, target)

    def test_nan_log_density_is_hard_error(self):
        """A NaN log f(x) handed to the ratio, or a NaN f(x'), raises; neither
        becomes a rejection."""
        class NanAtTwo:
            def log_density(self, x):
                return math.nan if len(x) == 2 else 0.0

        sched = BirthDeathSchedule.green(2.0, 8)
        target = PriorOnlyTarget(2.0, 8)
        x = (0.5,)
        for x_new in ((0.2, 0.5), ()):
            with pytest.raises(BrokenKernelError, match="NaN"):
                move_log_ratio(x, math.nan, x_new, 0.0, sched, target)
        with pytest.raises(BrokenKernelError, match="NaN"):
            birth_propose_unsorted(x, math.nan, sched, target, rng_stream(54))
        with pytest.raises(BrokenKernelError, match="NaN"):
            move_log_ratio(x, 0.0, (0.2, 0.5), 0.0, sched, NanAtTwo())

    def test_orders_neither_birth_nor_death_are_hard_errors(self):
        """Only k' = k + 1 (birth) and k' = k - 1 (death) have a ratio."""
        sched = BirthDeathSchedule.green(2.0, 8)
        target = PriorOnlyTarget(2.0, 8)
        x = (0.5, 1.0)
        with pytest.raises(BrokenKernelError):
            move_log_ratio(x, target.log_density(x), x, 0.0, sched, target)
        with pytest.raises(BrokenKernelError):
            move_log_ratio(x, target.log_density(x), (0.1, 0.2, 0.5, 1.0), 0.0, sched, target)
        with pytest.raises(BrokenKernelError):
            move_log_ratio(x, target.log_density(x), (), 0.0, sched, target)


class TestLegacyLogRatio:
    """move_log_ratio under a legacy schedule against the corrected one."""

    def test_equal_to_corrected_for_birth_from_empty(self):
        rng = rng_stream(40)
        model = random_model(rng)
        sched = BirthDeathSchedule.green(model.lam, model.k_max)
        legacy_sched = BirthDeathSchedule.green(model.lam, model.k_max, ratio_mode="legacy")
        x = ()
        proposed, ratio, _ = birth_propose_unsorted(x, model.log_density(x), sched, model, rng)
        legacy, lt_new = move_log_ratio(x, model.log_density(x), proposed,
                                        log_q(sched, x, proposed), legacy_sched, model)
        assert legacy == pytest.approx(ratio, abs=1e-12)
        assert lt_new == model.log_density(proposed)

    def test_birth_offset_is_log_k_plus_one(self):
        rng = rng_stream(41)
        for k in (1, 2, 3, 5):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            legacy_sched = BirthDeathSchedule.green(model.lam, model.k_max, ratio_mode="legacy")
            x = random_state(rng, k)
            proposed, ratio, _ = birth_propose_unsorted(x, model.log_density(x), sched, model,
                                                        rng)
            legacy, lt_new = move_log_ratio(x, model.log_density(x), proposed,
                                            log_q(sched, x, proposed), legacy_sched, model)
            assert legacy - ratio == pytest.approx(-math.log(k + 1), abs=1e-12)
            assert lt_new == model.log_density(proposed)

    def test_death_offset_is_plus_log_k(self):
        rng = rng_stream(42)
        for k in (1, 2, 4):
            model = random_model(rng)
            sched = BirthDeathSchedule.green(model.lam, model.k_max)
            legacy_sched = BirthDeathSchedule.green(model.lam, model.k_max, ratio_mode="legacy")
            x = random_state(rng, k)
            proposed, ratio, _ = death_propose(x, model.log_density(x), sched, model, rng)
            legacy, lt_new = move_log_ratio(x, model.log_density(x), proposed,
                                            log_q(sched, x, proposed), legacy_sched, model)
            assert legacy - ratio == pytest.approx(math.log(k), abs=1e-12)
            assert lt_new == model.log_density(proposed)


class TestSortedKernel:
    def test_insertion_at_unique_sorted_slot(self):
        rng = rng_stream(43)
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        x = (0.3, 0.9)
        twin = rng_stream(43)  # replays the draw of s* ~ q
        for _ in range(100):
            proposed, _, _ = birth_propose_sorted(x, target.log_density(x), sched, target, rng)
            s_star = twin.uniform(0.0, math.pi)
            assert is_sorted(proposed)
            assert proposed[slot(x, proposed)] == s_star

    def test_empty_state_slot_zero(self):
        rng = rng_stream(44)
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        proposed, _, _ = birth_propose_sorted((), 0.0, sched, target, rng)
        assert len(proposed) == 1
        assert slot((), proposed) == 0

    def test_tie_rejects_surely(self):
        prop = pmf_component_proposal([0.5, 1.5], [0.5, 0.5])
        sched = BirthDeathSchedule.green(2.0, 8, 0.4, proposal=prop, representation="sorted")
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        x = (0.5, 1.5)
        rng = rng_stream(45)
        log_fx = target.log_density(x)
        outs = [birth_propose_sorted(x, log_fx, sched, target, rng) for _ in range(20)]
        assert all(ratio == NEG_INF for _, ratio, _ in outs)

    def test_unsorted_input_is_hard_error(self):
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        with pytest.raises(BrokenKernelError):
            birth_propose_sorted((1.0, 0.5), NEG_INF, sched, target, rng_stream(46))
        with pytest.raises(BrokenKernelError):
            move_log_ratio((1.0, 0.5), NEG_INF, (0.1, 1.0, 0.5), 0.0, sched, target)

    def test_kernels_share_the_ratio_guard(self):
        """Under a sorted schedule, a death from an unsorted state and an
        unsorted-slot birth reach move_log_ratio's sorted-state check and raise;
        every state they propose is unsorted, so neither may pass as a rejection."""
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        for seed in range(10):
            x = (1.0, 0.5, 0.2)
            with pytest.raises(BrokenKernelError, match="unsorted state"):
                death_propose(x, target.log_density(x), sched, target, rng_stream(seed))
            x = (1.0, 0.5)
            with pytest.raises(BrokenKernelError, match="unsorted state"):
                birth_propose_unsorted(x, target.log_density(x), sched, target,
                                       rng_stream(seed))

    def test_insertion_slot_probability_matches_gap(self):
        """Middle-slot hits over 1e5 draws match (0.9-0.3)/pi within 3 sigma."""
        rng = rng_stream(47)
        target = SortedRestriction(PriorOnlyTarget(2.0, 8))
        sched = BirthDeathSchedule.green(2.0, 8, representation="sorted")
        x = (0.3, 0.9)
        p_gap = (0.9 - 0.3) / math.pi
        n = 100_000
        log_fx = target.log_density(x)
        hits = sum(slot(x, birth_propose_sorted(x, log_fx, sched, target, rng)[0]) == 1
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
            target = SortedRestriction(model)
            proposed, ratio, _ = birth_propose_sorted(x, target.log_density(x), ssched, target,
                                                      rng)
            if ratio == NEG_INF:
                continue
            unsorted_ratio, lt_new = move_log_ratio(x, model.log_density(x), proposed,
                                                    log_q(ssched, x, proposed), usched, model)
            assert ratio == pytest.approx(unsorted_ratio, abs=1e-12)
            assert lt_new == model.log_density(proposed)

    def test_flat_sorted_target_birth_ratio_closed_form(self):
        """Constant density, matched p_b/p_d, uniform q, k=0 birth: ratio = log(pi)."""
        class FlatSorted:
            def log_density(self, x):
                return 0.0 if is_sorted(x) else NEG_INF

        # p_b(0) = p_d(1) = 0.3
        sched = BirthDeathSchedule.green(1.0, 8, 0.3, representation="sorted")
        rng = rng_stream(49)
        _, ratio, _ = birth_propose_sorted((), 0.0, sched, FlatSorted(), rng)
        # -log q(s*) - log(0+1) with q = 1/pi
        assert ratio == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_sorted_death_antisymmetry(self):
        rng = rng_stream(50)
        model = random_model(rng)
        target = SortedRestriction(model)
        sched = BirthDeathSchedule.green(model.lam, model.k_max,
                                         representation="sorted")
        x = random_state(rng, 3)
        proposed, ratio, lt_new = death_propose(x, target.log_density(x), sched, target, rng)
        reverse, lt_back = move_log_ratio(proposed, lt_new, x, log_q(sched, x, proposed), sched,
                                          target)
        assert reverse == pytest.approx(-ratio, abs=1e-12)
        assert lt_back == target.log_density(x)


class TestMoveSetFactory:
    def test_weights_sum_to_one_at_every_order(self):
        """The weights sum to 1 and none is negative: with c <= 0.5 the rest
        1 - p_b - p_d needs no clamp at 0."""
        for lam, c in ((3.0, 0.25), (0.7, 0.5), (3.0, 0.5), (6.5, 0.5)):
            target = PriorOnlyTarget(lam, 6)
            moves = bod_move_set(target, BirthDeathSchedule.green(lam, 6, c))
            for k in range(7):
                x = tuple(0.1 + 0.3 * j for j in range(k))
                assert sum(m.weight(x) for m in moves) == pytest.approx(1.0, abs=1e-15)
                assert all(m.weight(x) >= 0.0 for m in moves)

    def test_identity_move_rejects_surely_without_drawing(self):
        target = PriorOnlyTarget(3.0, 6)
        birth, death, none = bod_move_set(target, BirthDeathSchedule.green(3.0, 6))
        assert (birth.label, death.label, none.label) == ("birth", "death", "none")
        rng = rng_stream(52)
        before = rng.bit_generator.state
        x = (0.4, 1.2)
        proposed, ratio, lt_new = none.propose(x, target.log_density(x), rng)
        assert proposed is x
        assert ratio == NEG_INF
        assert lt_new == target.log_density(x)
        assert rng.bit_generator.state == before

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(2.0, 8, representation="diagonal")
        with pytest.raises(ConfigurationError):
            BirthDeathSchedule.green(2.0, 8, ratio_mode="fixed")
