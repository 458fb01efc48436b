"""Ensemble disagreement scores and band selection."""

from __future__ import annotations

import numpy as np
import pytest

from compforge.errors import ConfigError, DataError
from compforge.uncertainty import (
    EnsembleTokenDistributions,
    band_select,
    coarsen_distributions,
    read_ensemble_dump,
    token_uncertainties,
    write_ensemble_dump,
)

from oracles import naive_uncertainties


def dists_from(blocks, example_id="e"):
    """blocks: list over positions of (M, S) arrays/lists."""
    support = tuple(tuple(f"t{i}" for i in range(np.asarray(b).shape[1])) for b in blocks)
    return EnsembleTokenDistributions(
        example_id=example_id,
        support=support,
        probs=tuple(np.asarray(b, dtype=np.float64) for b in blocks),
    )


def random_blocks(rng, members, positions, supports=None):
    blocks = []
    for l in range(positions):
        size = supports[l] if supports else int(rng.integers(2, 6))
        blocks.append(rng.dirichlet([1.0] * size, size=members))
    return blocks


class TestTokenUncertainties:
    def test_two_member_fixture(self):
        d = dists_from([np.array([[0.9, 0.1], [0.1, 0.9]])])
        score = token_uncertainties(d)
        assert score.token_mutual_information[0] == pytest.approx(0.368064, abs=1e-6)
        assert score.token_rmi[0] == pytest.approx(0.510826, abs=1e-6)
        assert score.token_entropy[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_identical_two_member_ensemble_is_exactly_zero(self):
        # The two-member mean (x + x) / 2 is bit-exact, so both disagreement
        # measures vanish with no tolerance at all.
        row = np.array([0.3, 0.2, 0.5])
        d = dists_from([np.tile(row, (2, 1))] * 3)
        score = token_uncertainties(d)
        assert np.all(score.token_rmi == 0.0)
        assert np.all(score.token_mutual_information == 0.0)
        assert score.sequence_score == 0.0

    def test_identical_members_larger_m_near_zero(self):
        # Beyond two members the mean can pick up rounding at the last ulp
        # (the axis-0 reduction is sequential), so "zero" means zero within
        # smoothing tolerance rather than bitwise.
        row = np.array([0.1, 0.6, 0.3])
        for members in (3, 4, 8, 10):
            d = dists_from([np.tile(row, (members, 1))])
            score = token_uncertainties(d)
            assert abs(score.token_rmi[0]) < 1e-13
            assert abs(score.token_mutual_information[0]) < 1e-13

    def test_disagreement_is_positive(self):
        d = dists_from([np.array([[0.99, 0.01], [0.01, 0.99]])])
        score = token_uncertainties(d)
        assert score.token_rmi[0] > 0 and score.token_mutual_information[0] > 0

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            blocks = random_blocks(rng, members=5, positions=4)
            d = dists_from(blocks)
            score = token_uncertainties(d)
            for l, block in enumerate(blocks):
                ent, mi, rmi = naive_uncertainties([list(row) for row in block])
                assert score.token_entropy[l] == pytest.approx(ent, abs=1e-10)
                assert score.token_mutual_information[l] == pytest.approx(mi, abs=1e-10)
                assert score.token_rmi[l] == pytest.approx(rmi, abs=1e-10)

    def test_non_negativity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = dists_from(random_blocks(rng, members=4, positions=3))
            score = token_uncertainties(d)
            assert np.all(score.token_rmi >= -1e-12)
            assert np.all(score.token_mutual_information >= -1e-12)
            assert np.all(score.token_entropy >= -1e-12)

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(33)
        blocks = random_blocks(rng, members=6, positions=3)
        perm = rng.permutation(6)
        d1 = dists_from(blocks)
        d2 = dists_from([b[perm] for b in blocks])
        s1, s2 = token_uncertainties(d1), token_uncertainties(d2)
        np.testing.assert_allclose(s1.token_rmi, s2.token_rmi, atol=1e-12)
        np.testing.assert_allclose(
            s1.token_mutual_information, s2.token_mutual_information, atol=1e-12
        )

    def test_member_duplication_invariance(self):
        rng = np.random.default_rng(34)
        blocks = random_blocks(rng, members=3, positions=2)
        doubled = [np.concatenate([b, b], axis=0) for b in blocks]
        s1 = token_uncertainties(dists_from(blocks))
        s2 = token_uncertainties(dists_from(doubled))
        np.testing.assert_allclose(s1.token_rmi, s2.token_rmi, atol=1e-14)


class TestSequenceScore:
    def test_all_zero_tokens(self):
        row = np.array([0.5, 0.5])
        d = dists_from([np.tile(row, (2, 1))] * 3)
        assert token_uncertainties(d).sequence_score == 0.0

    def test_mean_of_two(self):
        score = token_uncertainties(
            dists_from([np.array([[0.9, 0.1], [0.1, 0.9]]),
                        np.array([[0.9, 0.1], [0.1, 0.9]])])
        )
        assert score.sequence_score == pytest.approx(score.token_rmi.mean())

    def test_single_position(self):
        d = dists_from([np.array([[0.7, 0.3], [0.2, 0.8]])])
        score = token_uncertainties(d)
        assert score.sequence_score == pytest.approx(score.token_rmi[0])


class TestValidation:
    def test_fewer_than_two_members(self):
        with pytest.raises(DataError):
            dists_from([np.array([[1.0, 0.0]])])

    def test_support_row_mismatch(self):
        with pytest.raises(DataError):
            EnsembleTokenDistributions(
                example_id="x",
                support=(("a", "b", "c"),),
                probs=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
            )

    def test_unnormalized_rejected(self):
        with pytest.raises(DataError):
            dists_from([np.array([[0.9, 0.2], [0.5, 0.5]])])

    def test_negative_probability_rejected(self):
        with pytest.raises(DataError):
            dists_from([np.array([[1.1, -0.1], [0.5, 0.5]])])


class TestBandSelect:
    def ranked(self, n, seed=0):
        rng = np.random.default_rng(seed)

        class Item:
            def __init__(self, i):
                self.id = f"i{i:05d}"

        scores = np.sort(rng.uniform(size=n))[::-1]
        return [(Item(i), float(s)) for i, s in enumerate(scores)]

    def test_band_bounds_respected(self):
        ranked = self.ranked(25_000)
        chosen = band_select(ranked, discard_top=2_000, window=18_000, sample=3_000, seed=5)
        assert len(chosen) == 3_000
        ordered_ids = [item.id for item, _ in ranked]
        band_ids = set(ordered_ids[2_000 : 2_000 + 18_000])
        assert all(item.id in band_ids for item in chosen)
        assert len({item.id for item in chosen}) == 3_000

    def test_sample_equal_window_returns_whole_band(self):
        ranked = self.ranked(120)
        chosen = band_select(ranked, discard_top=10, window=100, sample=100, seed=9)
        expected = [item for item, _ in ranked[10:110]]
        assert chosen == expected

    def test_deterministic_given_seed(self):
        ranked = self.ranked(500)
        a = band_select(ranked, 50, 300, 40, seed=7)
        b = band_select(ranked, 50, 300, 40, seed=7)
        assert a == b
        c = band_select(ranked, 50, 300, 40, seed=8)
        assert set(x.id for x in c) != set(x.id for x in a) or c != a

    def test_unsorted_input_is_reordered(self):
        ranked = self.ranked(200)
        shuffled = list(ranked)
        np.random.default_rng(1).shuffle(shuffled)
        assert band_select(shuffled, 20, 100, 30, seed=3) == band_select(ranked, 20, 100, 30, seed=3)

    def test_sample_larger_than_window_rejected(self):
        with pytest.raises(ConfigError):
            band_select(self.ranked(200), 10, 50, 51, seed=0)

    def test_too_few_ranked_rejected(self):
        with pytest.raises(ConfigError):
            band_select(self.ranked(100), 50, 60, 10, seed=0)


class TestDumpIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        dists = [
            EnsembleTokenDistributions(
                example_id=f"e{i}",
                support=(("a", "b"), ("a", "b", "c")),
                probs=(
                    rng.dirichlet([1, 1], size=3),
                    rng.dirichlet([1, 1, 1], size=3),
                ),
                tokens=("x", "y"),
            )
            for i in range(4)
        ]
        path = tmp_path / "dump.jsonl"
        assert write_ensemble_dump(dists, path) == 4
        again = read_ensemble_dump(path)
        assert [d.example_id for d in again] == [d.example_id for d in dists]
        for d1, d2 in zip(dists, again):
            assert d1.support == d2.support and d1.tokens == d2.tokens
            for b1, b2 in zip(d1.probs, d2.probs):
                np.testing.assert_allclose(b1, b2, atol=0)

    def test_mismatched_member_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "support": [["x", "y"]], "probs": [[[0.5, 0.5]], [[1.0]]]}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError) as err:
            read_ensemble_dump(path)
        assert err.value.line == 1

    def test_coarsening_keeps_rows_normalized(self):
        rng = np.random.default_rng(44)
        vocab = [f"v{i}" for i in range(40)]
        full = rng.dirichlet([0.5] * 40, size=(4, 6))
        d = coarsen_distributions("big", full, vocab, top_k=5)
        assert d.members == 4 and d.positions == 6
        for support, block in zip(d.support, d.probs):
            assert support[-1] == "<other>"
            np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-9)
        # scoring the coarsened dump works
        token_uncertainties(d)
