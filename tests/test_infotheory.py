import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from distest import bounds
from distest import infotheory as it
from distest import sweeps
from distest.errors import EnumerationTooLargeError, InvalidArgumentError
from distest.infotheory import (check_dpi_independent, check_dpi_truncated,
                                check_information_chaining,
                                check_pinsker_consequence, check_tensorization,
                                entropy, estimation_to_testing_lower,
                                fano_variant_lower, hamming_neighborhood_size,
                                mutual_information)


def binary_entropy_nats(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def one_hot(outputs) -> np.ndarray:
    """The 0/1 quantizer table of the map x -> outputs[x]: np.eye(n_out)[outputs]
    without the (n_out, n_out) identity, so a wide table costs only its cells."""
    outputs = np.asarray(outputs)
    return (np.arange(outputs.max() + 1) == outputs[:, None]).astype(float)


def bsc_joint(crossover: float) -> np.ndarray:
    rows = np.array([[1 - crossover, crossover], [crossover, 1 - crossover]])
    return 0.5 * rows


# Every check, entropy and product_channel, with valid tables in its table
# arguments, by argument name.
TWO_POINT = sweeps.two_point_channel(0.2)
CHECKS = {
    "entropy": (entropy, {"p": np.array([0.2, 0.3, 0.5])}),
    "dpi_independent": (lambda channel, quantizer: check_dpi_independent(1, channel, quantizer),
                        {"channel": TWO_POINT, "quantizer": np.array([[0.3, 0.7], [0.6, 0.4]])}),
    "dpi_truncated": (lambda channel, quantizer: check_dpi_truncated(
                          1, channel, quantizer, np.array([True, True])),
                      {"channel": TWO_POINT, "quantizer": np.array([[0.3, 0.7], [0.6, 0.4]])}),
    "tensorization": (lambda channel1, channel2, quantizer1, quantizer2: check_tensorization(
                          1, [channel1, channel2], [quantizer1, quantizer2]),
                      {"channel1": TWO_POINT, "channel2": sweeps.two_point_channel(0.1),
                       "quantizer1": np.array([[0.3, 0.7], [0.6, 0.4]]),
                       "quantizer2": np.array([[0.5, 0.5], [0.2, 0.8]])}),
    "pinsker": (check_pinsker_consequence,
                {"pair": sweeps.random_pinsker_joint(np.random.default_rng(1))}),
    "chaining": (check_information_chaining,
                 {"model": sweeps.random_chain_model(np.random.default_rng(3))}),
    "product_channel": (lambda channel: it.product_channel(channel, 2),
                        {"channel": TWO_POINT}),
}
TABLE_ARGS = [(check, arg) for check, (_, tables) in CHECKS.items() for arg in tables]


# each way `spoiled` breaks a table, and the entry error it must raise
ENTRY_ERRORS = {"negative": "nonnegative", "off_one": "sums to", "nan": "sums to",
                "wrong_rank": "-d table", "empty": "empty"}


def spoiled(kind: str, table: np.ndarray) -> np.ndarray:
    """A copy of a valid table broken in one way."""
    bad = np.array(table, dtype=float)
    if kind == "wrong_rank":
        return bad[None]
    if kind == "empty":
        return bad[..., :0]
    # flat[0] and flat[1] share a row, so "negative" keeps every sum at 1
    bad.flat[0] += {"negative": 1.0, "off_one": 0.1, "nan": math.nan}[kind]
    if kind == "negative":
        bad.flat[1] -= 1.0
    return bad


class TestBasicQuantities:
    def test_entropy_uniform(self):
        assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_point_mass_entropy_is_positive_zero(self):
        for p in (np.array([1.0]), np.array([0.0, 1.0, 0.0])):
            assert math.copysign(1.0, entropy(p)) == 1.0

    def test_bsc_mutual_information_closed_form(self):
        # V uniform {-1,1}, X = BSC(V, 0.4): I = ln 2 - H_b(0.4)
        expected = math.log(2) - binary_entropy_nats(0.4)
        got = mutual_information(bsc_joint(0.4), 0, 1)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.020136, abs=1e-6)

    def test_mi_symmetry_and_entropy_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            table = rng.uniform(0.01, 1.0, size=(3, 4))
            table /= table.sum()
            iab = mutual_information(table, 0, 1)
            iba = mutual_information(table, 1, 0)
            assert iab == pytest.approx(iba, abs=1e-12)
            assert iab >= 0
            assert iab <= min(entropy(table.sum(axis=1)), entropy(table.sum(axis=0))) + 1e-12

    def test_mutual_information_marginalizes_other_axes(self):
        # A, B a BSC pair and C independent of both: I(A; B) ignores C, and
        # I(A; C) = I(C; B) = 0
        table = np.einsum("ab,c->acb", bsc_joint(0.4), np.array([0.2, 0.3, 0.5]))
        assert mutual_information(table, 0, 2) == mutual_information(bsc_joint(0.4), 0, 1)
        assert mutual_information(table, 2, 0) == mutual_information(bsc_joint(0.4), 1, 0)
        assert mutual_information(table, 0, 1) == pytest.approx(0.0, abs=1e-15)
        assert mutual_information(table, 1, 2) == pytest.approx(0.0, abs=1e-15)

    def test_mutual_information_on_tiny_cells(self):
        # a * b of the first cell's marginals underflows to 0: that cell's
        # term is j (log j - log a - log b), so I(A; A) = H(A), not inf; a
        # stack of tables that never underflows keeps its bytes
        joint = np.array([[1e-170, 0.0], [0.0, 1.0 - 1e-170]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mutual_information(joint, 0, 1)
            assert mutual_information(joint.T, 1, 0) == got
        assert got == entropy(joint.sum(axis=1))
        assert got == pytest.approx(170 * math.log(10) * 1e-170, rel=1e-12)
        wide = np.array([[1e-200, 1e-170], [1e-170, 1.0 - 2e-170 - 1e-200]])
        assert mutual_information(wide, 0, 1) == pytest.approx(
            140 * math.log(10) * 1e-200, rel=1e-12)
        tables = np.stack([bsc_joint(0.4), joint, bsc_joint(0.1)])
        assert it._mi_from_table(tables)[[0, 2]].tolist() == [
            mutual_information(bsc_joint(0.4), 0, 1), mutual_information(bsc_joint(0.1), 0, 1)]

    def test_mutual_information_entry_check(self):
        with pytest.raises(InvalidArgumentError):
            mutual_information(np.array([[0.6, 0.6], [0.0, 0.0]]), 0, 1)
        # the ceiling is checked before the pmf rules
        with pytest.raises(EnumerationTooLargeError):
            mutual_information(np.zeros((2, it.ENUMERATION_CEILING // 2 + 1)), 0, 1)


class TestRejections:
    """Tables are validated where they enter; each bad table raises."""

    @pytest.mark.parametrize("kind", ENTRY_ERRORS)
    @pytest.mark.parametrize("check, arg", TABLE_ARGS, ids=[f"{c}-{a}" for c, a in TABLE_ARGS])
    def test_bad_table_argument(self, check, arg, kind):
        run, tables = CHECKS[check]
        with pytest.raises(InvalidArgumentError, match=ENTRY_ERRORS[kind]):
            run(**dict(tables, **{arg: spoiled(kind, tables[arg])}))

    @pytest.mark.parametrize("check", CHECKS)
    def test_each_table_is_validated_once_per_call(self, check, monkeypatch):
        # each table enters _check_pmf as its stack-of-one view, whose .base
        # is the array that owns the caller's memory
        seen = []
        check_pmf = it._check_pmf

        def counting(table, *args, **kwargs):
            seen.append(id(table.base))
            return check_pmf(table, *args, **kwargs)

        monkeypatch.setattr(it, "_check_pmf", counting)
        run, tables = CHECKS[check]
        run(**tables)
        owners = [table if table.base is None else table.base for table in tables.values()]
        assert sorted(seen) == sorted(id(owner) for owner in owners)

    @pytest.mark.parametrize("check, arg, stack", [
        ("entropy", "p", np.stack([CHECKS["entropy"][1]["p"]] * 3)),
        ("dpi_independent", "channel", np.stack([TWO_POINT] * 3)),
        ("dpi_truncated", "channel", np.stack([TWO_POINT] * 3)),
        ("tensorization", "channel2", np.stack([TWO_POINT] * 3)),
        ("pinsker", "pair", np.stack([CHECKS["pinsker"][1]["pair"]] * 3)),
        ("chaining", "model", np.stack([CHECKS["chaining"][1]["model"]] * 3)),
        ("product_channel", "channel", np.stack([TWO_POINT] * 3)),
        # a quantizer is its table: a 1-d map is one axis short, like a stack
        # of tables is one axis over
        ("dpi_independent", "quantizer", np.arange(2)),
        ("dpi_truncated", "quantizer", np.stack([np.eye(2)] * 3)),
        ("tensorization", "quantizer1", np.arange(2)),
        ("tensorization", "quantizer2", np.stack([np.eye(2)] * 3)),
    ])
    def test_a_public_check_takes_one_table_not_a_stack(self, check, arg, stack):
        run, tables = CHECKS[check]
        with pytest.raises(InvalidArgumentError, match="-d table"):
            run(**dict(tables, **{arg: stack}))

    @pytest.mark.parametrize("quantizer", [
        np.array([[0.5, 0.5], [0.7, 0.7]]),      # a row sums to 1.4
        np.array([[0.5, 0.5], [1.5, -0.5]]),     # a negative entry
        np.array([[0.5, 0.5]]),                  # one row for two inputs
        np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]),
        np.ones((2, 0)),                         # empty rows
    ])
    @pytest.mark.parametrize("check", ["independent", "truncated"])
    def test_bad_stochastic_quantizer(self, check, quantizer):
        ch = sweeps.two_point_channel(0.2)
        with pytest.raises(InvalidArgumentError):
            if check == "independent":
                check_dpi_independent(1, ch, quantizer)
            else:
                check_dpi_truncated(1, ch, quantizer, np.array([True, True]))

    @pytest.mark.parametrize("quantizer", [
        np.eye(3),                               # three inputs' rows for two
        np.eye(1),                               # one input's row for two
        np.array([[1.0, 0.0], [0.0, 0.0]]),      # a row with no output symbol
        np.array([[1.0, 1.0], [0.0, 1.0]]),      # a row with two output symbols
    ])
    def test_deterministic_quantizer_of_wrong_length_or_symbols(self, quantizer):
        ch = sweeps.two_point_channel(0.2)
        with pytest.raises(InvalidArgumentError):
            check_dpi_independent(1, ch, quantizer)
        with pytest.raises(InvalidArgumentError):
            check_dpi_truncated(1, ch, quantizer, np.array([True, True]))

    def test_joint_over_the_ceiling(self):
        # 2 x 2 states of (V, X) fit; the 2**20 + 1 outputs of Y do not
        ch = sweeps.two_point_channel(0.2)
        quantizer = one_hot([0, it.ENUMERATION_CEILING])
        with pytest.raises(EnumerationTooLargeError, match="joint"):
            check_dpi_independent(1, ch, quantizer)
        with pytest.raises(EnumerationTooLargeError, match="joint"):
            check_dpi_truncated(1, ch, quantizer, np.array([True, True]))
        with pytest.raises(EnumerationTooLargeError, match="joint message"):
            check_tensorization(1, [ch, ch], [np.eye(2), quantizer])

    def test_huge_v_dim_is_over_the_ceiling(self):
        # 2**20000 has more digits than an int may print, and 2**(10**12)
        # more bits than memory holds: both raise on the bound 2**v_dim
        for v_dim in (20000, 10**12):
            with pytest.raises(EnumerationTooLargeError, match="product alphabet"):
                check_dpi_independent(v_dim, TWO_POINT, np.eye(2))
        with pytest.raises(EnumerationTooLargeError, match="product alphabet"):
            check_tensorization(10**12, [TWO_POINT] * 2, [np.eye(2)] * 2)

    def test_joint_message_alphabet_over_the_ceiling(self):
        # each machine's 2 x 65536 table fits; the four together give 2 * 2**64
        # joint messages, a product that wraps to 0 in int64
        ch = sweeps.two_point_channel(0.2)
        with pytest.raises(EnumerationTooLargeError, match="joint message"):
            check_tensorization(1, [ch] * 4, [one_hot([0, 65535])] * 4)

    def test_bad_quantizer_in_tensorization(self):
        ch = sweeps.two_point_channel(0.2)
        with pytest.raises(InvalidArgumentError):
            check_tensorization(1, [ch, ch], [np.eye(2), np.array([[0.5, 0.6], [1.0, 0.0]])])

    @pytest.mark.parametrize("v_dim", [0, -1])
    def test_v_dim_below_one(self, v_dim):
        ch = sweeps.two_point_channel(0.2)
        with pytest.raises(InvalidArgumentError, match="v_dim >= 1"):
            check_dpi_independent(v_dim, ch, np.eye(2))
        with pytest.raises(InvalidArgumentError, match="v_dim >= 1"):
            check_dpi_truncated(v_dim, ch, np.eye(2), np.array([True, True]))
        with pytest.raises(InvalidArgumentError, match="v_dim >= 1"):
            check_tensorization(v_dim, [ch], [np.eye(2)])

    @pytest.mark.parametrize("machines", [0, -1])
    def test_machines_below_one(self, machines):
        ch = sweeps.two_point_channel(0.2)
        with pytest.raises(InvalidArgumentError, match="machines >= 1"):
            check_dpi_truncated(1, ch, np.eye(2), np.array([True, True]), machines)

    @pytest.mark.parametrize("call", [
        lambda: hamming_neighborhood_size(2.5, 1),
        lambda: fano_variant_lower(2.5, 1, 0.1),
        lambda: sweeps.exact_min_hamming_test_error(np.full((8, 2), 1 / 16), 3.0, 1),
        lambda: check_dpi_independent(1.5, TWO_POINT, np.eye(2)),
        lambda: check_dpi_truncated(1, TWO_POINT, np.eye(2), np.array([True, True]),
                                    machines=1.5),
        lambda: check_tensorization(1.0, [TWO_POINT], [np.eye(2)]),
        lambda: it.product_channel(TWO_POINT, 2.0),
    ], ids=["neighborhood", "fano", "exact_test", "dpi_independent", "dpi_truncated",
            "tensorization", "product_channel"])
    def test_non_integer_sizes(self, call):
        with pytest.raises(InvalidArgumentError, match="integer"):
            call()

    def test_numpy_integer_sizes(self):
        assert hamming_neighborhood_size(np.int64(3), 1) == 4
        assert (check_dpi_truncated(np.int32(1), TWO_POINT, np.eye(4),
                                    np.array([True, True]), machines=np.int64(2))
                == check_dpi_truncated(1, TWO_POINT, np.eye(4),
                                       np.array([True, True]), machines=2))

    def test_tensorization_needs_a_machine(self):
        with pytest.raises(InvalidArgumentError, match="at least one machine"):
            check_tensorization(1, [], [])

    def test_joint_that_does_not_sum_to_one(self):
        with pytest.raises(InvalidArgumentError, match="sums to"):
            mutual_information(np.full((2, 2), 0.3), 0, 1)
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            mutual_information(np.array([[0.6, 0.1], [0.4, -0.1]]), 0, 1)

    @pytest.mark.parametrize("joint, axes", [
        ([[0.5, 0.5]], (0, 0)), ([[0.5, 0.5]], (1, 1)), ([[0.5, 0.5]], (0, 2)),
        ([[0.5, 0.5]], (-1, 0)), ([[0.5, 0.5]], (0.5, 1)), ([0.5, 0.5], (0, 1)),
    ])
    def test_mutual_information_needs_two_distinct_axes(self, joint, axes):
        with pytest.raises(InvalidArgumentError, match="two distinct axes"):
            mutual_information(np.array(joint), *axes)

    def test_entropy_entry_check(self):
        for bad in ([0.5, 0.6], [1.5, -0.5], [], [[0.5, 0.5]], [math.nan, 1.0]):
            with pytest.raises(InvalidArgumentError):
                entropy(np.array(bad))

    def test_arrays_that_are_not_pmfs_get_no_value(self):
        # this returned -0.608, a negative entropy, before pmfs were checked
        # where they enter
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            entropy(np.array([1.5, -0.5]))

    def test_chaining_rejects_d_depending_on_a(self):
        # A, B, C independent and uniform, D = A: D is not independent of A
        # given (B, C), while P(C | A, B) still factors.
        table = np.zeros((2, 2, 2, 2))
        for a in range(2):
            table[a, :, :, a] = 1 / 8
        with pytest.raises(InvalidArgumentError, match=r"violates D _\|_ A"):
            check_information_chaining(table)

    def test_chaining_rejects_unlikely_a_and_wrong_axes(self):
        table = np.zeros((2, 2, 2, 2))
        table[0] = 1 / 8
        with pytest.raises(InvalidArgumentError):
            check_information_chaining(table)
        # an (A, B, C) table: the D axis is missing
        with pytest.raises(InvalidArgumentError, match="4-d"):
            check_information_chaining(np.full((2,) * 3, 1 / 8))


class TestNeighborhoodsAndFano:
    def test_small_examples(self):
        assert hamming_neighborhood_size(6, 1) == 7
        assert hamming_neighborhood_size(13, 0) == 1

    def test_binomial_sum_vs_enumeration_oracle(self):
        # independent oracle: enumerate all vertices of {-1,1}^10 within
        # Hamming distance 3 of a fixed vertex
        d, t = 10, 3
        count = sum(1 for v in itertools.product((0, 1), repeat=d) if sum(v) <= t)
        assert count == 176
        assert hamming_neighborhood_size(d, t) == count
        assert hamming_neighborhood_size(d, 3.9) == count

    def test_fano_variant_values(self):
        got = fano_variant_lower(6, 1, 0.0)
        assert got == pytest.approx(1 - math.log(2) / math.log(64 / 7), abs=1e-12)
        assert got == pytest.approx(0.6868, abs=5e-4)
        assert fano_variant_lower(4, 1, 100.0) == 0.0
        assert fano_variant_lower(1, 0, 0.0) == 0.0

    def test_fano_past_the_float_range(self):
        # below the float range the bound keeps log(2**d / N_t): at d = 6 it
        # differs from log(2**d) - log(N_t) in the last bit
        assert fano_variant_lower(6, 1, 0.0) == 1 - math.log(2) / math.log(64 / 7)
        # 2**2000 / 2001 overflows a float; the bound itself is well defined
        got = fano_variant_lower(2000, 1, 0.1)
        want = 1 - (0.1 + math.log(2)) / (2000 * math.log(2) - math.log(2001))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.99942, abs=1e-5)

    def test_fano_needs_room(self):
        with pytest.raises(InvalidArgumentError):
            fano_variant_lower(2, 2, 0.0)

    def test_estimation_to_testing(self):
        assert estimation_to_testing_lower(0.5, 3, 0.0) == 0.0
        assert estimation_to_testing_lower(0.1, 1, 0.6868) == pytest.approx(0.013736)
        # t = 0 recovers the classical reduction delta^2 P(error)
        assert estimation_to_testing_lower(0.2, 0, 0.3) == pytest.approx(0.04 * 0.3)

    def test_composition_monotone_in_information(self):
        infos = np.linspace(0.0, 2.0, 30)
        vals = [estimation_to_testing_lower(0.1, 1, fano_variant_lower(6, 1, i))
                for i in infos]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("fn, args, name", [
    (bounds.tail_pstar, (4.0, 0.1, 4, math.nan), "sigma"),
    (bounds.tail_pstar, (4.0, 0.1, 0, 1.0), "n must"),
    (bounds.centralized_rate, ("gaussian", 1, 1, 1, math.nan), "sigma2"),
    (bounds.centralized_rate, ("gaussian", 1, 1, 1, -1.0), "sigma2"),
    (fano_variant_lower, (3, 1, math.nan), "info_nats"),
    (estimation_to_testing_lower, (math.nan, 1, 0.5), "delta"),
    (estimation_to_testing_lower, (0.1, math.inf, 0.5), "t must"),
    (estimation_to_testing_lower, (0.1, 1, math.nan), "test_error_prob"),
    (hamming_neighborhood_size, (3, math.nan), "finite t"),
    (hamming_neighborhood_size, (3, -1), "finite t"),
    (hamming_neighborhood_size, (0, 1), "integer d >= 1"),
    (hamming_neighborhood_size, (2.0, 1), "integer d >= 1"),
    (fano_variant_lower, (3, 1, -0.5), "info_nats"),
    (fano_variant_lower, (3, 1, math.inf), "info_nats"),
    (estimation_to_testing_lower, (-0.1, 1, 0.5), "delta"),
    (estimation_to_testing_lower, (0.1, -1, 0.5), "t must"),
    (estimation_to_testing_lower, (0.1, 1, -0.1), "test_error_prob"),
    (estimation_to_testing_lower, (0.1, 1, 1.5), "test_error_prob"),
], ids=lambda x: x.__name__ if callable(x) else str(x).replace(" ", ""))
def test_scalar_helpers_reject_nan_and_out_of_range_arguments(fn, args, name):
    with pytest.raises(InvalidArgumentError, match=name):
        fn(*args)


class TestLeCam:
    """At d = 1 and t = 0 the exact Hamming test decides between two
    hypotheses, and its error is Le Cam's (1 - TV(P_0, P_1)) / 2."""

    @staticmethod
    def error(p0, p1):
        return sweeps.exact_min_hamming_test_error(0.5 * np.array([p0, p1]), 1, 0)

    def test_equal_distributions(self):
        p = np.array([0.3, 0.7])
        assert self.error(p, p) == 0.5

    def test_disjoint_supports(self):
        assert self.error([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_bsc_outputs(self):
        p0, p1 = [0.6, 0.4], [0.4, 0.6]
        # the Pinsker report's lhs is TV(P_0, P_1)^2
        assert check_pinsker_consequence(0.5 * np.array([p0, p1]))["lhs"] == (
            pytest.approx(0.2 ** 2))
        assert self.error(p0, p1) == pytest.approx(0.4)


class TestLikelihoodRatio:
    """A channel's alpha in check_dpi_independent is the log of the worst
    likelihood ratio between its rows."""

    @staticmethod
    def alpha(channel):
        return check_dpi_independent(1, channel, np.eye(channel.shape[1]))["alpha"]

    def test_two_point_delta(self):
        assert self.alpha(sweeps.two_point_channel(0.2)) == (
            pytest.approx(math.log(1.5), abs=1e-12))
        assert self.alpha(sweeps.two_point_channel(0.5)) == (
            pytest.approx(math.log(3.0), abs=1e-12))

    def test_equal_rows(self):
        assert self.alpha(np.array([[0.3, 0.7], [0.3, 0.7]])) == 0.0

    def test_zero_entry_infinite_signal(self):
        # a zero entry beside a positive one: no finite ratio
        assert self.alpha(np.array([[1.0, 0.0], [0.5, 0.5]])) == math.inf


class TestPinskerConsequence:
    def test_independent(self):
        rep = check_pinsker_consequence(np.full((2, 3), 1 / 6))
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert rep["rhs"] == pytest.approx(0.0, abs=1e-12)
        assert rep["holds"]

    def test_deterministic_channel(self):
        rep = check_pinsker_consequence(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert rep["lhs"] == pytest.approx(1.0)
        assert rep["rhs"] == pytest.approx(2 * math.log(2))
        assert rep["holds"]

    def test_requires_uniform_binary_v(self):
        with pytest.raises(InvalidArgumentError):
            check_pinsker_consequence(np.array([[0.8, 0.1], [0.05, 0.05]]))

    def test_random_sweep(self):
        rows = sweeps.run_suite("pinsker", 2000, seed=101)
        assert all(row.holds for row in rows)


class TestDpiIndependent:
    def test_identity_quantizer_worked_example(self):
        ch = sweeps.two_point_channel(0.2)
        rep = check_dpi_independent(1, ch, np.eye(2))
        expected_i = math.log(2) - binary_entropy_nats(0.4)
        # the identity map makes the two ends of the chain coincide
        assert rep["I_VY"] == pytest.approx(expected_i, abs=1e-12)
        assert rep["I_VX"] == pytest.approx(expected_i, abs=1e-12)
        assert rep["alpha"] == pytest.approx(math.log(1.5), abs=1e-12)
        assert rep["bound"] == pytest.approx(2 * 1.25**2 * rep["I_XY"], abs=1e-12)
        assert rep["holds"]

    def test_constant_output_equality_case(self):
        ch = sweeps.two_point_channel(0.2)
        rep = check_dpi_independent(1, ch, np.ones((2, 1)))
        assert rep["I_VY"] == pytest.approx(0.0, abs=1e-12)
        assert rep["bound"] == pytest.approx(0.0, abs=1e-12)
        assert rep["holds"]

    def test_random_sweep_with_classical_dpi(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            v_dim = int(rng.integers(1, 3))
            delta = float(rng.choice([0.1, 0.2]))
            ch = sweeps.random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
            q = sweeps.random_quantizer(rng, ch.shape[1] ** v_dim,
                                        int(rng.integers(1, 5)),
                                        stochastic=bool(rng.integers(0, 2)))
            rep = check_dpi_independent(v_dim, ch, q)
            assert rep["holds"]
            assert rep["I_VY"] <= rep["I_VX"] + it.SLACK  # classical DPI


class TestDpiTruncated:
    def test_full_set_reduces_to_lemma3_shape(self):
        ch = sweeps.two_point_channel(0.2)
        rep = check_dpi_truncated(1, ch, np.eye(2), np.array([True, True]))
        # +0.0, not -0.0: a sure event has entropy +0.0
        assert rep["H_E"] == 0.0 and math.copysign(1.0, rep["H_E"]) == 1.0
        assert rep["P_E0"] == 0.0
        a = rep["alpha"]
        assert rep["bound"] == pytest.approx(
            2 * (math.exp(4 * a) - 1) ** 2 * rep["I_XY"], abs=1e-12)
        assert rep["holds"]

    def test_three_symbol_truncation(self):
        ch = np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2]])
        keep = np.array([True, True, False])
        rep = check_dpi_truncated(1, ch, np.eye(3), keep)
        assert rep["P_E0"] == pytest.approx(0.2)
        assert rep["H_E"] > 0
        assert rep["alpha"] == pytest.approx(math.log(5 / 3), abs=1e-12)
        assert rep["holds"]

    @pytest.mark.parametrize("keep", [np.array([True, True]), np.ones(4, dtype=bool),
                                      np.ones((2, 3), dtype=bool), np.zeros(3, dtype=bool)])
    def test_mask_of_wrong_shape_or_empty(self, keep):
        ch = np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2]])
        with pytest.raises(InvalidArgumentError, match="truncation"):
            check_dpi_truncated(1, ch, np.eye(3), keep)

    @pytest.mark.parametrize("truncation", [[0, 1], [0.5, 7], np.array([1, 1])])
    def test_truncation_is_a_boolean_mask(self, truncation):
        # read as a mask, the index list [0, 1] ("keep symbols 0 and 1") would
        # keep symbol 1 alone and report P_E0 = 0.5, not the 0 of keeping both
        ch = sweeps.two_point_channel(0.2)
        with pytest.raises(InvalidArgumentError, match="boolean mask"):
            check_dpi_truncated(1, ch, np.eye(2), truncation)

    @pytest.mark.parametrize("v_dim, machines, expected", [
        (2, 1, {"I_VY": 0.014630366891838763, "I_XY": 1.4444190426347407,
                "H_E": 0.6534181947937018, "P_E0": 0.36, "bound": 131.3153824688845}),
        (1, 2, {"I_VY": 0.03048737973230708, "I_XY": 1.0943543266655558,
                "H_E": 0.6534181947937018, "P_E0": 0.3600000000000001,
                "bound": 99.7358208822188}),
    ])
    def test_pinned_reports_beyond_one_coordinate_and_machine(self, v_dim, machines,
                                                               expected):
        # no suite draws these shapes, so these exact values pin them; Y adds
        # the two X symbols (v_dim = 2), or is machine 1's symbol when machine
        # 2's is 0 and 3 otherwise (machines = 2)
        ch = np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2]])
        digits = it.base_k_digits(3, 2)
        outputs = (digits.sum(axis=1) if v_dim == 2
                   else np.where(digits[:, 1] == 0, digits[:, 0], 3))
        quantizer = np.eye(outputs.max() + 1)[outputs]
        rep = check_dpi_truncated(v_dim, ch, quantizer, np.array([True, True, False]),
                                  machines=machines)
        assert rep["alpha"] == math.log(0.5 / 0.3)
        assert rep["holds"]
        for key, value in expected.items():
            assert rep[key] == value, key

    def test_random_sweeps(self):
        for name in ("dpi5", "dpi7"):
            rows = sweeps.run_suite(name, 400, seed=7)
            assert all(row.holds for row in rows)


class TestTensorization:
    def test_single_machine_equality(self):
        ch = sweeps.two_point_channel(0.2)
        rep = check_tensorization(1, [ch], [np.eye(2)])
        assert rep["I_joint"] == pytest.approx(rep["sum_I"], abs=1e-12)

    def test_two_identical_machines(self):
        ch = sweeps.two_point_channel(0.2)
        rep = check_tensorization(1, [ch, ch], [np.eye(2), np.eye(2)])
        assert rep["holds"]
        assert rep["I_joint"] <= rep["sum_I"] + 1e-12
        assert rep["sum_I"] == pytest.approx(
            2 * (math.log(2) - binary_entropy_nats(0.4)), abs=1e-12)

    def test_random_sweep(self):
        rows = sweeps.run_suite("tensor", 400, seed=23)
        assert all(row.holds for row in rows)


class TestInformationChaining:
    def test_a_independent_of_everything(self):
        pa = np.array([0.4, 0.6])
        rest = np.full((2, 2, 2), 1 / 8)
        table = np.einsum("a,bcd->abcd", pa, rest)
        rep = check_information_chaining(table)
        assert rep["holds"]
        assert rep["max_violation"] <= 1e-12

    def test_constant_d(self):
        rng = np.random.default_rng(3)
        table = sweeps.random_chain_model(rng)
        collapsed = table.sum(axis=3, keepdims=True)
        table = np.concatenate([collapsed, np.zeros_like(collapsed)], axis=3)
        rep = check_information_chaining(table)
        assert rep["holds"]
        assert rep["max_violation"] <= 1e-12  # conditioning on constant D is free

    def test_rejects_non_factorizing_model(self):
        rng = np.random.default_rng(5)
        table = rng.uniform(0.5, 1.0, size=(2, 2, 4, 2))
        table /= table.sum()
        with pytest.raises(InvalidArgumentError):
            check_information_chaining(table)

    def test_random_sweep(self):
        rows = sweeps.run_suite("chain", 500, seed=31)
        assert all(row.holds for row in rows)


class TestFanoSuite:
    def test_bound_below_exact_optimum(self):
        rows = sweeps.run_suite("fano", 400, seed=41)
        assert all(row.holds for row in rows)

    def test_suite_digest(self):
        # sha256 of the rows' repr: the suite's bytes at its own sizes, d = 2, 3
        rows = sweeps.run_suite("fano", 3000, seed=5)
        assert hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() == (
            "9a3f2a8f4bac7cd1c30b2c951efb910cee0b607e93943d05ae8ad175c85e7674")

    def test_exact_optimal_test_needs_one_row_per_pattern(self):
        with pytest.raises(InvalidArgumentError):
            sweeps.exact_min_hamming_test_error(np.full((4, 2), 1 / 8), 3, 1)

    @pytest.mark.parametrize("p_vx, match", [
        (np.full((8, 2), 5.0), "sums to"),      # gave an error probability of -39
        (np.full((8, 2, 1), 1 / 16), "2-d"),
        (np.full((8, 0), 0.0), "empty"),
        (np.array([[0.5, -0.5]] * 4 + [[0.25, 0.0]] * 4), "nonnegative"),
    ])
    def test_exact_optimal_test_needs_a_joint_pmf(self, p_vx, match):
        with pytest.raises(InvalidArgumentError, match=match):
            sweeps.exact_min_hamming_test_error(p_vx, 3, 1)

    @pytest.mark.parametrize("d, t", [(0, 1), (-1, 1), (3, -1), (3, math.nan), (3, math.inf)])
    def test_exact_optimal_test_needs_d_and_a_finite_radius(self, d, t):
        with pytest.raises(InvalidArgumentError, match="d >= 1 and a finite t >= 0"):
            sweeps.exact_min_hamming_test_error(np.full((8, 2), 1 / 16), d, t)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_hamming_ball_is_the_popcount_ball(self, d):
        for radius in range(d + 2):
            want = [[v for v in range(2 ** d) if bin(c ^ v).count("1") <= radius]
                    for c in range(2 ** d)]
            assert sweeps._hamming_ball(d, radius).tolist() == want

    def test_exact_optimal_test_over_the_ceiling(self):
        # 2**16 centers, one symbol: the radius-0 balls fit, while the
        # radius-2 gather's 2**16 x 137 cells exceed 2**20
        p_vx = np.full((2 ** 16, 1), 2.0 ** -16)
        assert sweeps.exact_min_hamming_test_error(p_vx, 16, 0) == 1.0 - 2.0 ** -16
        with pytest.raises(EnumerationTooLargeError, match="Hamming ball"):
            sweeps.exact_min_hamming_test_error(p_vx, 16, 2)

    def test_exact_optimal_test_is_a_probability(self):
        rng = np.random.default_rng(2)
        ch = sweeps.random_bounded_channel(rng, 3, 0.4)
        joint = it.product_channel(ch, 3) / 8
        err = sweeps.exact_min_hamming_test_error(joint, 3, 1)
        assert 0.0 <= err <= 1.0


# One drawn instance's (lhs, rhs, holds) from the scalar checks, by suite:
# the reference that the suites' stacked checks must equal bit for bit.
def _dpi3_reference(params, channel, quantizer):
    rep = check_dpi_independent(params[0], channel, quantizer)
    return rep["I_VY"], rep["bound"], rep["holds"] and rep["I_VY"] <= rep["I_VX"] + it.SLACK


def _truncated_reference(params, channel, quantizer, keep):
    rep = check_dpi_truncated(1, channel, quantizer, keep, machines=params[0])
    return rep["I_VY"], rep["bound"], rep["holds"]


def _chain_reference(params, model):
    rep = check_information_chaining(model)
    worst = rep["worst"] or {"lhs": 0.0, "rhs": 0.0}
    return worst["lhs"], worst["rhs"], rep["holds"]


def _tensor_reference(params, *tables):
    m = len(tables) // 2
    rep = check_tensorization(params[0], tables[:m], tables[m:])
    return rep["I_joint"], rep["sum_I"], rep["holds"]


def _pinsker_reference(params, pair):
    rep = check_pinsker_consequence(pair)
    return rep["lhs"], rep["rhs"], rep["holds"]


def _fano_reference(params, channel):
    d, t = params
    joint = it.product_channel(channel, d) / 2 ** d
    bound = fano_variant_lower(d, t, mutual_information(joint, 0, 1))
    err = sweeps.exact_min_hamming_test_error(joint, d, t)
    return bound, err, bound <= err + it.SLACK


REFERENCES = {"dpi3": _dpi3_reference, "dpi5": _truncated_reference,
              "dpi7": _truncated_reference, "chain": _chain_reference,
              "tensor": _tensor_reference, "pinsker": _pinsker_reference,
              "fano": _fano_reference}

# Each suite's draw as one instance's tables from the public constructors:
# the reference for the suites' raw draws, which make the same rng calls in
# the same order and finish their tables a stack at a time.
def _reference_dpi3(rng):
    v_dim = int(rng.integers(1, 3))
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = sweeps.random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
    n_out = int(rng.integers(1, 5))
    quantizer = sweeps.random_quantizer(rng, channel.shape[1] ** v_dim, n_out,
                                        stochastic=bool(rng.integers(0, 2)))
    return (v_dim,), (channel, quantizer)


def _reference_dpi5(rng):
    k = 3
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = sweeps.random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    n_out = int(rng.integers(1, 5))
    quantizer = sweeps.random_quantizer(rng, k, n_out, stochastic=bool(rng.integers(0, 2)))
    return (1,), (channel, quantizer, keep)


def _sequential_message_kernel(rng, k, machines):
    """Interactive quantizer, one instance at a time: message t is a
    stochastic function of machine t's symbol and all previous messages,
    flattened to one kernel (k^m, ny)."""
    sizes = [int(rng.integers(2, 4)) for _ in range(machines)]
    kernels = []
    for t in range(machines):
        raw = rng.uniform(0.1, 1.0, size=(k,) + tuple(sizes[:t]) + (sizes[t],))
        kernels.append(raw / raw.sum(axis=-1, keepdims=True))
    digits = it.base_k_digits(k, machines)
    probs = np.ones((len(digits), 1))        # (x, previous messages)
    for t in range(machines):
        kern = kernels[t][digits[:, t]].reshape(probs.shape + (sizes[t],))
        probs = (probs[:, :, None] * kern).reshape(len(digits), -1)
    return probs


def _reference_dpi7(rng):
    machines = int(rng.integers(2, 4))
    k = int(rng.integers(2, 4))
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = sweeps.random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if k > 2 and rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    return (machines,), (channel, _sequential_message_kernel(rng, k, machines), keep)


def _reference_tensor(rng):
    v_dim = int(rng.integers(1, 3))
    m = int(rng.integers(2, 4))
    channels = [sweeps.random_bounded_channel(rng, 2, (0.1, 0.2)[rng.integers(0, 2)])
                for _ in range(m)]
    quantizers = [sweeps.random_quantizer(rng, 2 ** v_dim, int(rng.integers(1, 3)),
                                          stochastic=bool(rng.integers(0, 2)))
                  for _ in range(m)]
    return (v_dim,), (*channels, *quantizers)


def _reference_fano(rng):
    d = int(rng.integers(2, 4))
    t = int(rng.integers(0, 2))
    delta = float(rng.uniform(0.05, 0.6))
    return (d, t), (sweeps.random_bounded_channel(rng, int(rng.integers(2, 4)), delta),)


REFERENCE_DRAWS = {"dpi3": _reference_dpi3, "dpi5": _reference_dpi5,
                   "dpi7": _reference_dpi7,
                   "chain": lambda rng: ((), (sweeps.random_chain_model(rng),)),
                   "tensor": _reference_tensor,
                   "pinsker": lambda rng: ((), (sweeps.random_pinsker_joint(rng),)),
                   "fano": _reference_fano}


def instance_seeds(count, seed):
    """The generator seeds of run_suite's first `count` instances."""
    base = int(np.random.SeedSequence(seed).generate_state(1)[0])
    return [(base + 977 * i) % 2**63 for i in range(count)]


# Every bucket key each suite draws, (params, table shapes): params are
# (v_dim,) for dpi3 and tensor, (machines,) for dpi5 and dpi7, (d, t) for
# fano and () for chain and pinsker; a deterministic and a stochastic
# quantizer of one shape share a key.
BUCKET_KEYS = {
    "dpi3": {((v,), ((2, k), (k ** v, n))) for v in (1, 2) for k in (2, 3)
             for n in (1, 2, 3, 4)},
    "dpi5": {((1,), ((2, 3), (3, n), (3,))) for n in (1, 2, 3, 4)},
    "dpi7": {((m,), ((2, k), (k ** m, math.prod(sizes)), (k,))) for m in (2, 3)
             for k in (2, 3) for sizes in itertools.product((2, 3), repeat=m)},
    "chain": {((), ((2, 2, 4, 2),))},
    "tensor": {((v,), ((2, 2),) * m + tuple((2 ** v, w) for w in widths))
               for v in (1, 2) for m in (2, 3)
               for widths in itertools.product((1, 2), repeat=m)},
    "pinsker": {((), ((2, k),)) for k in (2, 3, 4)},
    "fano": {((d, t), ((2, k),)) for d in (2, 3) for t in (0, 1) for k in (2, 3)},
}


class TestStackedSuites:
    """run_suite checks each block's instances one stack per bucket key; each
    row must be what the scalar checks give on the same drawn tables."""

    @pytest.mark.parametrize("name", sweeps.SUITE_NAMES)
    def test_stacked_rows_equal_the_scalar_checks(self, name):
        rows = sweeps.run_suite(name, max(300, 2 * sweeps.BLOCK) + 77, seed=13)
        keys, ref = set(), []
        for row in rows:
            params, tables = REFERENCE_DRAWS[name](np.random.default_rng(row.seed))
            keys.add((params, tuple(t.shape for t in tables)))
            ref.append(REFERENCES[name](params, *tables))
        assert keys == BUCKET_KEYS[name]
        lhs, rhs, holds = zip(*ref)
        assert np.array_equal([row.lhs for row in rows], lhs)
        assert np.array_equal([row.rhs for row in rows], rhs)
        assert np.array_equal([row.holds for row in rows], holds)

    @pytest.mark.parametrize("name", sweeps.SUITE_NAMES)
    def test_stacked_finish_equals_the_constructors(self, name):
        # the raw draws of the same instances as above, which reach every
        # bucket key, finished in stacks of 1, of 2 and of a block
        draw, _ = sweeps._SUITES[name]
        seeds = instance_seeds(max(300, 2 * sweeps.BLOCK) + 77, 13)
        ref = [REFERENCE_DRAWS[name](np.random.default_rng(s)) for s in seeds]
        assert {(p, tuple(t.shape for t in tables)) for p, tables in ref} == BUCKET_KEYS[name]
        drawn = [draw(np.random.default_rng(s)) for s in seeds]
        for size in (1, 2, sweeps.BLOCK):
            for start in range(0, len(seeds), size):
                chunk = drawn[start:start + size]
                finished = sweeps._finish([tables for _, tables in chunk])
                for (params, _), tables, (want_params, want) in zip(
                        chunk, finished, ref[start:start + size], strict=True):
                    assert params == want_params and len(tables) == len(want)
                    for table, table_ref in zip(tables, want):
                        assert table.dtype == table_ref.dtype
                        assert np.array_equal(table, table_ref)

    @pytest.mark.parametrize("name", sweeps.SUITE_NAMES)
    def test_rows_do_not_depend_on_count_or_block(self, name):
        # more instances than one block, and not a whole number of blocks:
        # the first 300 rows share their stacks with other instances here
        count = max(300, 2 * sweeps.BLOCK) + 77
        short = sweeps.run_suite(name, 300, seed=3)
        long = sweeps.run_suite(name, count, seed=3)
        assert len(long) == count
        assert [row.csv_row() for row in short] == [row.csv_row() for row in long[:300]]

    @pytest.mark.parametrize("count, seed", [(3, 1.7), (2.5, 1), (True, 1), (3, True),
                                             (3, np.float64(1.0)), ("3", 1)])
    def test_count_and_seed_must_be_integers(self, count, seed):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            sweeps.run_suite("dpi3", count, seed)

    def test_an_unknown_suite_is_refused_with_the_cli_text(self):
        text = f"unknown suite 'nosuch'; choices: {', '.join(sweeps.SUITE_NAMES)}"
        with pytest.raises(InvalidArgumentError) as err:
            sweeps.run_suite("nosuch", 1, 0)
        assert str(err.value) == text

    def test_numpy_integers_are_integers(self):
        rows = sweeps.run_suite("dpi3", np.int64(3), np.uint8(1))
        assert [r.csv_row() for r in rows] == [r.csv_row() for r in sweeps.run_suite("dpi3", 3, 1)]

    def test_cached_tables_are_read_only(self):
        digits = it.base_k_digits(3, 2)
        assert digits is it.base_k_digits(3, 2)
        with pytest.raises(ValueError):
            digits[0, 0] = 1
        with pytest.raises(ValueError):
            sweeps._hamming_ball(3, 1)[0, 0] = 1
