"""Engine-level behavior: move selection, accept/reject, chain driver, stats."""
import math

import numpy as np
import pytest

from transjump.birthdeath import (
    BirthDeathSchedule,
    birth_propose_unsorted,
    death_propose,
    is_sorted,
)
from transjump.core import (
    BrokenKernelError,
    ChainOutput,
    ConfigurationError,
    Draws,
    IterationRecord,
    Move,
    NEG_INF,
    VarDimState,
    check_iteration_counts,
    mhg_accept,
    mixture_step,
    rng_stream,
    run_chain,
    select_move,
)
from transjump.sinusoid import PriorOnlyTarget


def constant_moves(weights: dict[str, float]) -> tuple[Move, ...]:
    """Moves that propose the unchanged state with ratio 0 (always accept)."""
    return tuple(Move(label, lambda x, w=w: w,
                      lambda x, log_fx, rng: (x, 0.0, log_fx))
                 for label, w in weights.items())


class FixedDraws:
    """Stands in for the rng: every index draw gives i, and every random() gives s/pi,
    so that q's draw pi * random() is s (exactly, for the s these tests use)."""

    def __init__(self, i: int, s: float = 0.0):
        self.i, self.s = i, s

    def random(self):
        u = self.s / math.pi
        assert 0.0 <= u < 1.0 and math.pi * u == self.s
        return u

    def integers(self, low, high):
        assert low <= self.i < high
        return self.i


class FixedUniform:
    """Stands in for the rng: every random() gives u; ``calls`` counts them."""

    def __init__(self, u: float):
        self.u, self.calls = u, 0

    def random(self):
        self.calls += 1
        return self.u


def birth_at(x, i, s):
    """The unsorted birth kernel's proposal when it draws s* = s at slot i."""
    target = PriorOnlyTarget(2.0, 8)
    sched = BirthDeathSchedule.green(2.0, 8)
    proposed, _, _ = birth_propose_unsorted(x, target.log_density(x), sched, target,
                                            FixedDraws(i, s))
    return proposed


def death_at(x, i):
    """The death kernel's proposal when it draws removal index i."""
    target = PriorOnlyTarget(2.0, 8)
    sched = BirthDeathSchedule.green(2.0, 8)
    proposed, _, _ = death_propose(x, target.log_density(x), sched, target, FixedDraws(i))
    return proposed


class TestVarDimState:
    def test_empty_state(self):
        """A state is the tuple of its components; the benchmark builds the empty
        state as core.VarDimState()."""
        x = VarDimState()
        assert VarDimState is tuple
        assert x == () and len(x) == 0

    def test_insert_into_empty_forces_single_slot(self):
        x = birth_at((), 0, 0.7)
        assert x == (0.7,)

    def test_insert_middle_slot(self):
        x = (1.0, 2.0)
        assert birth_at(x, 1, 1.5) == (1.0, 1.5, 2.0)

    def test_remove_middle(self):
        x = (1.0, 2.0, 3.0)
        assert death_at(x, 1) == (1.0, 3.0)

    def test_remove_last_gives_empty(self):
        assert death_at((0.5,), 0) == VarDimState()

    def test_is_sorted(self):
        assert is_sorted((0.1, 0.2, 0.2))
        assert not is_sorted((0.2, 0.1))
        assert is_sorted(()) and is_sorted((0.3,))


class TestSelectMove:
    def test_inapplicable_move_never_selected(self):
        """A move with zero selection probability at the state is never drawn."""
        moves = constant_moves({"birth": 0.5, "death": 0.0, "update": 0.5})
        rng = rng_stream(1)
        labels = {select_move(moves, (), rng).label for _ in range(5000)}
        assert "death" not in labels

    def test_degenerate_single_move(self):
        moves = constant_moves({"only": 1.0})
        rng = rng_stream(2)
        assert all(select_move(moves, (), rng) is moves[0] for _ in range(100))

    def test_selection_frequencies_match_weights(self):
        """Empirical frequencies over 1e5 draws stay in 3-sigma binomial bands."""
        weights = {"birth": 0.25, "death": 0.15, "update": 0.6}
        moves = constant_moves(weights)
        rng = rng_stream(3)
        n = 100_000
        counts = {label: 0 for label in weights}
        for _ in range(n):
            counts[select_move(moves, (), rng).label] += 1
        for label, p in weights.items():
            band = 3.0 * math.sqrt(p * (1 - p) / n)
            assert abs(counts[label] / n - p) < band

    def test_weights_must_sum_to_one(self):
        moves = constant_moves({"a": 0.6, "b": 0.6})
        with pytest.raises(ConfigurationError):
            select_move(moves, (), rng_stream(4))

    def test_nan_weight_is_config_error(self):
        """A NaN weight makes the total NaN, which must not pass the sum check."""
        moves = constant_moves({"a": math.nan, "b": 1.0})
        with pytest.raises(ConfigurationError):
            select_move(moves, (), rng_stream(4))

    def test_negative_weight_is_config_error(self):
        moves = constant_moves({"a": -0.1, "b": 1.1})
        with pytest.raises(ConfigurationError, match="negative"):
            select_move(moves, (), rng_stream(4))

    def test_one_draw_per_call(self):
        rng = FixedUniform(0.3)
        moves = constant_moves({"birth": 0.25, "death": 0.15, "update": 0.6})
        for n in range(1, 4):
            assert select_move(moves, (), rng) is moves[1]
            assert rng.calls == n

    def test_zero_draw_skips_leading_zero_weight(self):
        """At u = 0.0 the first move's threshold 0.0 is not above u, so a leading
        move of weight 0 is never chosen."""
        moves = constant_moves({"a": 0.0, "b": 0.5, "c": 0.5})
        assert select_move(moves, (), FixedUniform(0.0)) is moves[1]

    def test_rounding_sliver_gives_last_positive_move(self):
        """Weights summing to 1 - 5e-13 pass the sum check; a u above their total
        falls to the last move of positive weight, never the trailing zero one."""
        moves = constant_moves({"a": 0.5, "b": 0.5 - 5e-13, "c": 0.0})
        assert select_move(moves, (), FixedUniform(1.0 - 2.0 ** -53)) is moves[1]


class TestMhgAccept:
    def test_zero_log_ratio_accepts_surely(self):
        rng = rng_stream(5)
        assert all(mhg_accept(0.0, rng) for _ in range(1000))

    def test_minus_inf_rejects_surely(self):
        rng = rng_stream(6)
        assert not any(mhg_accept(float("-inf"), rng) for _ in range(1000))

    def test_positive_log_ratio_accepts(self):
        assert mhg_accept(12.3, rng_stream(7))

    def test_acceptance_frequency(self):
        """P(accept) = 0.3 within a 3-sigma band over 1e5 trials."""
        rng = rng_stream(8)
        n = 100_000
        hits = sum(mhg_accept(math.log(0.3), rng) for _ in range(n))
        band = 3.0 * math.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) < band

    def test_nan_is_hard_error(self):
        with pytest.raises(BrokenKernelError):
            mhg_accept(float("nan"), rng_stream(9))


class FlatTarget:
    def log_density(self, x):
        return 0.0


class PointTarget:
    """Density concentrated on a single state; everything else is -inf."""

    def __init__(self, point):
        self.point = point

    def log_density(self, x):
        return 0.0 if x == self.point else float("-inf")


def jump_moves(target=None) -> tuple[Move, ...]:
    """Birth/death-shaped moves over k via insertion of a fixed component.

    The acceptance ratio is the log target difference (symmetric bookkeeping),
    against a flat target when none is given.
    """
    target = target if target is not None else FlatTarget()

    def outcome(proposed, log_fx):
        lt_new = target.log_density(proposed)
        return proposed, lt_new - log_fx, lt_new

    def birth(x, log_fx, rng):
        return outcome(x + (0.5 + len(x),), log_fx)

    def death(x, log_fx, rng):
        return outcome(x[:-1], log_fx)

    return (
        Move("birth", lambda x: 0.5, birth),
        Move("death", lambda x: 0.5 if x else 0.0, death),
        Move("hold", lambda x: 0.0 if x else 0.5, lambda x, log_fx, rng: (x, 0.0, log_fx)),
    )


class TestRunChain:
    def test_zero_iterations_gives_empty_records(self):
        out = run_chain(FlatTarget(), jump_moves(), (), 0, 0,
                        rng_stream(10))
        assert out.records == []
        assert out.config == {"n_iter": 0, "burn_in": 0}

    def test_all_rejecting_target_keeps_chain_at_init(self):
        init = ()
        target = PointTarget(init)
        out = run_chain(target, jump_moves(target), init, 500, 0, rng_stream(11))
        assert all(r.components == () for r in out.records)
        assert sum(out.acceptances.values()) == out.proposals.get("hold", 0)

    def test_tallies_sum_to_iterations(self):
        out = run_chain(FlatTarget(), jump_moves(), (), 2000, 100,
                        rng_stream(12))
        assert sum(out.proposals.values()) == 2000
        for label, n in out.proposals.items():
            assert out.acceptances.get(label, 0) <= n

    def test_burn_in_flagged_not_dropped(self):
        out = run_chain(FlatTarget(), jump_moves(), (), 50, 20,
                        rng_stream(13))
        assert sum(r.burn_in for r in out.records) == 20
        assert out.k_counts(8).sum() == 30

    def test_same_seed_bit_identical(self):
        runs = [run_chain(FlatTarget(), jump_moves(), (), 3000, 500,
                          rng_stream(14)) for _ in range(2)]
        assert runs[0].records == runs[1].records
        assert runs[0].proposals == runs[1].proposals
        assert runs[0].acceptances == runs[1].acceptances

    def test_invalid_burn_in_rejected(self):
        with pytest.raises(ConfigurationError):
            run_chain(FlatTarget(), jump_moves(), (), 10, 10, rng_stream(15))

    def test_iteration_count_bounds(self):
        for n_iter, burn_in in ((0, 0), (1, 0), (10, 9), (np.int64(10), np.int64(9))):
            check_iteration_counts(n_iter, burn_in)
        for n_iter, burn_in in ((-1, 0), (0, 1), (10, 10), (10, -1),
                                (100, 1.5), (10.5, 0), (10.0, 0), (10, 2.0)):
            with pytest.raises(ConfigurationError):
                check_iteration_counts(n_iter, burn_in)
        rng = rng_stream(15)
        with pytest.raises(ConfigurationError):
            run_chain(FlatTarget(), jump_moves(), (), 100, 1.5, rng)
        assert rng.random() == rng_stream(15).random()

    def test_zero_density_init_rejected(self):
        with pytest.raises(ConfigurationError):
            target = PointTarget((1.0,))
            run_chain(target, jump_moves(target), (), 10, 0, rng_stream(16))

    def test_nan_components_hard_error(self):
        bad = (Move("bad", lambda x: 1.0,
                    lambda x, log_fx, rng: ((float("nan"),), 0.0, 0.0)),)
        with pytest.raises(BrokenKernelError):
            run_chain(FlatTarget(), bad, (), 10, 0, rng_stream(17))

    def test_nan_components_hard_error_when_rejected(self):
        """A surely rejected proposal is still scanned; only proposing x itself skips it."""
        bad = (Move("bad", lambda x: 1.0,
                    lambda x, log_fx, rng: ((float("nan"),), NEG_INF, NEG_INF)),)
        with pytest.raises(BrokenKernelError):
            run_chain(FlatTarget(), bad, (), 10, 0, rng_stream(17))

    def test_nan_log_target_on_a_row_is_hard_error(self):
        """An accepted move reaches a state where the target is NaN and returns
        that density: the row's log target is checked, not recorded as NaN."""
        class NanAtOne:
            def log_density(self, x):
                return math.nan if len(x) == 1 else 0.0

        target = NanAtOne()
        moves = (
            Move("birth", lambda x: 1.0 if len(x) == 0 else 0.0,
                 lambda x, log_fx, rng: ((0.5,) + x, 0.0, target.log_density((0.5,) + x))),
            Move("death", lambda x: 1.0 if len(x) == 1 else 0.0,
                 lambda x, log_fx, rng: (x[1:], 0.0, target.log_density(x[1:]))),
        )
        with pytest.raises(BrokenKernelError, match="k=1"):
            run_chain(target, moves, (), 4, 0, rng_stream(26))

    def test_k_frequencies_sum_to_one(self):
        out = run_chain(FlatTarget(), jump_moves(), (), 4000, 400,
                        rng_stream(18))
        freqs = out.k_frequencies(k_max=max(r.k for r in out.records))
        assert freqs.sum() == pytest.approx(1.0, abs=1e-12)


class TestMixtureStep:
    def test_tallies_the_selected_move(self):
        out = ChainOutput()
        step = mixture_step(jump_moves(), rng_stream(22))
        x, log_t, label, accepted, lam, delta2 = step((), 0.0, out)
        assert label in ("birth", "hold")
        assert len(x) == (1 if label == "birth" else 0)
        assert accepted
        assert (log_t, lam, delta2) == (0.0, None, None)
        assert out.proposals == {label: 1}
        assert out.acceptances == {label: 1}

    def test_rejection_tallied_without_acceptance(self):
        init = ()
        target = PointTarget(init)
        out = ChainOutput()
        step = mixture_step(jump_moves(target), rng_stream(23))
        while "birth" not in out.proposals:
            assert step(init, 0.0, out)[:2] == (init, 0.0)
        assert out.acceptances.get("birth", 0) == 0

    def test_plain_tuple_proposal_is_accepted_and_carried(self):
        """A proposal is the plain tuple (x', log r, log f(x')): an accepted one
        becomes the row's state and log f."""
        moves = (Move("jump", lambda x: 1.0, lambda x, log_fx, rng: ((0.25, 0.5), 0.0, -1.5)),)
        out = ChainOutput()
        row = mixture_step(moves, rng_stream(27))((), 0.0, out)
        assert row == ((0.25, 0.5), -1.5, "jump", True, None, None)
        assert out.proposals == out.acceptances == {"jump": 1}


class TestChainOutput:
    def test_k_max_defaults_to_config(self):
        out = ChainOutput(config={"k_max": 3, "burn_in": 1})
        for k in (0, 1, 1, 3):
            out.append((0.5,) * k, 0.0, "birth", True)
        np.testing.assert_array_equal(out.k_counts(), [0, 2, 0, 1])
        assert out.k_frequencies() @ np.arange(4) == pytest.approx(5.0 / 3.0)
        assert out.k_frequencies(5).size == 6

    def test_kept_k_above_k_max_raises(self):
        """Only kept rows count: the burn-in row's k = 5 neither raises nor widens the counts."""
        out = ChainOutput(config={"k_max": 2, "burn_in": 1})
        for k in (5, 1, 3):
            out.append((0.5,) * k, 0.0, "birth", True)
        with pytest.raises(IndexError, match="k=3"):
            out.k_counts()
        with pytest.raises(IndexError):
            out.k_frequencies(2)
        np.testing.assert_array_equal(out.k_counts(3), [0, 1, 0, 1])

    def test_empty_columns(self):
        out = run_chain(FlatTarget(), jump_moves(), (), 0, 0, rng_stream(24))
        assert len(out.k) == len(out.components) == len(out.move) == 0
        np.testing.assert_array_equal(out.k_counts(3), [0, 0, 0, 0])
        np.testing.assert_array_equal(out.k_frequencies(3), [0.0, 0.0, 0.0, 0.0])

    def test_burn_in_boundary(self):
        """Row burn_in - 1 is the last burn-in row, row burn_in the first kept one."""
        out = run_chain(FlatTarget(), jump_moves(), (), 40, 15, rng_stream(25))
        records = out.records
        assert [r.burn_in for r in records] == [True] * 15 + [False] * 25
        k_max = max(out.k)
        expected = np.bincount([r.k for r in records[15:]], minlength=k_max + 1)
        np.testing.assert_array_equal(out.k_counts(k_max), expected)
        assert out.k_counts(k_max).sum() == 25

    def test_records_rebuild_the_columns(self):
        out = ChainOutput(config={"burn_in": 1})
        out.append((0.25, 0.5), -1.5, "birth", True, 2.0, 50.0)
        out.append((), -0.5, "death", False, 3.0, 60.0)
        out.append((0.75,), 0.0, "none", False, 4.0, 70.0)
        assert out.records == [
            IterationRecord(2, (0.25, 0.5), -1.5, "birth", True, True, 2.0, 50.0),
            IterationRecord(0, (), -0.5, "death", False, False, 3.0, 60.0),
            IterationRecord(1, (0.75,), 0.0, "none", False, False, 4.0, 70.0)]
        assert list(out.components) == [0.25, 0.5, 0.75]
        with pytest.raises(AttributeError):
            out.records = []

    def test_records_are_slotted(self):
        r = IterationRecord(0, (), 0.0, "none", False, False)
        assert not hasattr(r, "__dict__")
        assert r.lam is None and r.delta2 is None


class TestMoveStats:
    def test_empty_output_empty_table(self):
        out = run_chain(FlatTarget(), jump_moves(), (), 0, 0, rng_stream(19))
        assert out.proposals == {} and out.acceptances == {}

    def test_all_accepted_rates_one(self):
        out = run_chain(FlatTarget(), jump_moves(), (), 300, 0,
                        rng_stream(20))
        assert out.proposals and out.acceptances == out.proposals

    def test_rates_match_record_recount(self):
        """The per-move tallies agree exactly with a recount of the raw records."""
        init = ()
        target = PointTarget(init)
        out = run_chain(target, jump_moves(target), init, 2000, 0, rng_stream(21))
        proposed: dict[str, int] = {}
        accepted: dict[str, int] = {}
        for r in out.records:
            proposed[r.move] = proposed.get(r.move, 0) + 1
            if r.accepted:
                accepted[r.move] = accepted.get(r.move, 0) + 1
        assert out.proposals == proposed
        assert out.acceptances == accepted
        assert 0 < sum(accepted.values()) < sum(proposed.values())


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(42, 3).standard_normal(5)
        b = rng_stream(42, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rng_stream(42, 0).standard_normal(5)
        b = rng_stream(42, 1).standard_normal(5)
        assert not np.allclose(a, b)


class TestDraws:
    """core.Draws against a twin Generator seeded alike: the same values, and
    the same stream position afterwards."""

    # 2**31 + 1 rejects about half of its first draws; 2**32 is the full 32-bit range.
    RANGES = (1, 2, 3, 7, 33, 1_000_003, 2**31 + 1, 2**32)

    @pytest.mark.parametrize("bit_generator", (
        np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
        np.random.SFC64), ids=lambda b: b.__name__)
    def test_twin_stream(self, bit_generator):
        gen, twin = np.random.Generator(bit_generator(2024)), np.random.Generator(
            bit_generator(2024))
        draws = Draws(gen)
        plan = np.random.default_rng(7)  # the order of the draws, apart from both streams
        kinds = plan.integers(0, 6, size=30_000)  # kinds 4 and 5 are both integers
        lows = plan.integers(-50, 50, size=kinds.size)
        for i, (kind, low) in enumerate(zip(kinds.tolist(), lows.tolist())):
            if kind == 0:
                assert draws.random() == twin.random()
            elif kind == 1:
                assert draws.standard_normal() == twin.standard_normal()
            elif kind == 2:
                assert draws.gamma(2.5 + low % 7, 0.5) == twin.gamma(2.5 + low % 7, 0.5)
            elif kind == 3:
                assert draws.choice(3, p=[0.2, 0.5, 0.3]) == twin.choice(3, p=[0.2, 0.5, 0.3])
            else:
                n = self.RANGES[i % len(self.RANGES)]
                value = draws.integers(low, low + n)
                assert type(value) is int and value == twin.integers(low, low + n)
        # A one-value range draws nothing, and integers(0, 2**31) reads a buffered half-word.
        assert draws.integers(9, 10) == 9
        assert gen.integers(0, 2**31) == twin.integers(0, 2**31)
        assert gen.random() == twin.random()

    def test_integers_keeps_numpys_errors(self):
        gen = rng_stream(3)
        draws = Draws(gen)
        for low, high in ((0, 0), (5, 4), (0, -1)):
            with pytest.raises(ValueError):
                gen.integers(low, high)
            with pytest.raises(ValueError):
                draws.integers(low, high)
        # numpy takes a 64-bit path above 2**32 values, which Draws does not have.
        with pytest.raises(ValueError):
            draws.integers(0, 2**32 + 1)
        with pytest.raises(ValueError):
            draws.integers(-2**40, 2**40)
        assert gen.random() == rng_stream(3).random()
