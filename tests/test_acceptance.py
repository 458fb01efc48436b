"""Acceptance gate: one test per advertised behavior, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see a single
``ACCEPTANCE nn PASS/FAIL`` verdict line per criterion. Expected values are
re-derived by the naive oracles in tests/oracles.py wherever an independent
derivation exists; timing-sensitive checks measure wall-clock time and say
so in their verdict line.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np

from compforge.corpus import ParallelExample
from compforge.cover import degree_of, min_cover
from compforge.engine import (
    ModelConfig,
    adaptive_encode,
    encode,
    encoding_hash,
    greedy_decode,
    init_weights,
    kv_decode_full,
    project_cross,
)
from compforge.ngrams import NGramDictionary
from compforge.novelty import novel_ngram_count
from compforge.pipeline import score_pool
from compforge.uncertainty import (
    EnsembleTokenDistributions,
    band_select,
    token_uncertainties,
)

from oracles import exhaustive_min_cover, naive_uncertainties, set_difference_novelty
from test_cover import dict_of
from test_engine_ops import tie_adaptive_encoder


@contextmanager
def criterion(number: int, description: str):
    """Print exactly one verdict line, whether the body passes or raises."""
    info = {"detail": ""}
    try:
        yield info
    except Exception as exc:
        print(f"\nACCEPTANCE {number:02d} FAIL — {description} [{exc}]")
        raise
    tail = f" [{info['detail']}]" if info["detail"] else ""
    print(f"\nACCEPTANCE {number:02d} PASS — {description}{tail}")


# ---------------------------------------------------------------------------
# minimum covers and compositional degree
# ---------------------------------------------------------------------------


def test_01_minimum_cover_worked_example():
    with criterion(1, "worked five-token cover: 2 atoms, degree exactly 0.4, < 1 ms") as info:
        d = dict_of("x1", "x2", "x3 x4", "x5", "x1 x2", "x3 x4 x5")
        sentence = "x1 x2 x3 x4 x5".split()

        cover = min_cover(sentence, d)  # warm-up before timing
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            min_cover(sentence, d)
            best = min(best, time.perf_counter() - t0)

        assert cover.atom_count == 2
        assert cover.atoms == (("x1", "x2"), ("x3", "x4", "x5"))
        degree = degree_of(sentence, d)
        assert degree.exact == Fraction(2, 5)
        assert degree.value == 0.4
        assert best < 1e-3, f"cover took {best * 1e3:.3f} ms"
        info["detail"] = f"runtime {best * 1e6:.1f} µs"


def test_02_hand_checked_degree_fixtures():
    with criterion(2, "hand-checked sentence degrees: 2/8 = 0.25 and 5/6 ≈ 0.83, exact") as info:
        low = degree_of(
            "but what can we do about this ?".split(),
            dict_of("but", "what can we do about this ?"),
        )
        assert low.atom_count == 2
        assert low.exact == Fraction(1, 4)
        assert low.value == 0.25

        high = degree_of(
            "please report all changes here .".split(),
            dict_of("please", "report", "all", "changes", "here ."),
        )
        assert high.atom_count == 5
        assert high.exact == Fraction(5, 6)
        assert round(high.value, 2) == 0.83
        info["detail"] = f"degrees {low.value} and {high.value:.4f}"


def test_03_cover_matches_exhaustive_oracle():
    with criterion(3, "1,000 random sentences: DP == exhaustive segmentation oracle, < 10 s") as info:
        rng = np.random.default_rng(20260819)
        alphabet = [f"t{i}" for i in range(6)]
        mismatches = 0
        started = time.perf_counter()
        for _ in range(1000):
            length = int(rng.integers(1, 13))
            sentence = [alphabet[int(i)] for i in rng.integers(0, 6, size=length)]
            entries = set()
            for _ in range(int(rng.integers(0, 12))):
                n = int(rng.integers(1, 5))
                if rng.random() < 0.5 and length >= n:
                    start = int(rng.integers(0, length - n + 1))
                    entries.add(tuple(sentence[start : start + n]))
                else:
                    entries.add(tuple(alphabet[int(j)] for j in rng.integers(0, 6, size=n)))
            d = NGramDictionary.from_entries(entries) if entries else dict_of()
            if min_cover(sentence, d).atom_count != exhaustive_min_cover(sentence, d):
                mismatches += 1
        elapsed = time.perf_counter() - started
        assert mismatches == 0, f"{mismatches} of 1000 covers disagree with the oracle"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"
        info["detail"] = f"1000/1000 agree in {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# ensemble uncertainty and band selection
# ---------------------------------------------------------------------------


def test_04_uncertainty_fixture_and_oracle_sweep():
    with criterion(
        4, "two-member fixture mi/rmi to 1e-6; identical members exactly 0; 500 random vs oracle at 1e-10"
    ) as info:
        fixture = EnsembleTokenDistributions(
            example_id="fixture", widths=[2], probs=np.array([[0.9, 0.1], [0.1, 0.9]])
        )
        score = token_uncertainties(fixture)
        assert abs(score.token_mutual_information[0] - 0.368064) < 1e-6
        assert abs(score.token_rmi[0] - 0.510826) < 1e-6

        # Two identical members: (x + x) / 2 is bit-exact, so both
        # disagreement measures must vanish with no tolerance at all.
        row = np.array([0.3, 0.2, 0.5])
        same = EnsembleTokenDistributions(
            example_id="same", widths=[3, 3], probs=np.tile(row, (2, 2))
        )
        same_score = token_uncertainties(same)
        assert np.all(same_score.token_mutual_information == 0.0)
        assert np.all(same_score.token_rmi == 0.0)
        assert same_score.sequence_score == 0.0

        rng = np.random.default_rng(41)
        worst = 0.0
        for case in range(500):
            members = int(rng.integers(2, 7))
            positions = int(rng.integers(1, 5))
            blocks = []
            for l in range(positions):
                size = int(rng.integers(2, 9))
                alpha = rng.uniform(0.3, 3.0, size=size)
                blocks.append(rng.dirichlet(alpha, size=members))
            dists = EnsembleTokenDistributions(
                example_id=f"case{case}",
                widths=[b.shape[1] for b in blocks],
                probs=np.concatenate(blocks, axis=1),
            )
            got = token_uncertainties(dists)
            for l in range(positions):
                ent, mi, rmi = naive_uncertainties([list(r) for r in blocks[l]])
                worst = max(
                    worst,
                    abs(got.token_entropy[l] - ent),
                    abs(got.token_mutual_information[l] - mi),
                    abs(got.token_rmi[l] - rmi),
                )
        assert worst < 1e-10, f"worst oracle gap {worst:.3e}"
        info["detail"] = f"worst oracle gap {worst:.1e}"


def test_05_band_selection_default_geometry():
    with criterion(
        5, "25,000-item ranking: 3,000 sampled, every rank in (2000, 20000], seed-stable"
    ) as info:
        rng = np.random.default_rng(7)
        scores = rng.permutation(25_000).astype(float)
        ranked = [(f"item{i:05d}", float(s)) for i, s in enumerate(scores)]
        rng.shuffle(ranked)  # pre-sorted input must not be required

        by_score = sorted(ranked, key=lambda pair: -pair[1])
        rank_of = {item: position + 1 for position, (item, _) in enumerate(by_score)}
        score_of = dict(ranked)

        picked = band_select(ranked, discard_top=2_000, window=18_000, sample=3_000, seed=123)
        again = band_select(list(ranked), discard_top=2_000, window=18_000, sample=3_000, seed=123)

        assert len(picked) == 3_000
        assert len(set(picked)) == 3_000
        ranks = [rank_of[item] for item in picked]
        assert all(2_000 < r <= 20_000 for r in ranks)
        assert picked == again
        # results come back in rank order
        chosen_scores = [score_of[item] for item in picked]
        assert chosen_scores == sorted(chosen_scores, reverse=True)
        info["detail"] = f"ranks span [{min(ranks)}, {max(ranks)}]"


# ---------------------------------------------------------------------------
# decoder engine
# ---------------------------------------------------------------------------


def _random_reencoder_config(rng) -> tuple[ModelConfig, bool]:
    """A random interval-1 rdangle_shr config, and whether its adaptive
    encoder should be tied to the plain one (then encoder_layers == k1 + k2)."""
    n_heads = int(rng.choice([2, 4]))
    d_model = n_heads * int(rng.choice([2, 4]))
    k1 = int(rng.integers(0, 3))
    k2 = int(rng.integers(0, 3))
    if k1 + k2 == 0:
        k1 = 1
    shared = bool(rng.random() < 0.5)
    cfg = ModelConfig(
        src_vocab=int(rng.integers(5, 13)),
        tgt_vocab=int(rng.integers(5, 13)),
        d_model=d_model,
        n_heads=n_heads,
        d_ff=2 * d_model,
        encoder_layers=k1 + k2 if shared else int(rng.integers(1, 4)),
        decoder_layers=int(rng.integers(1, 3)),
        k1=k1,
        k2=k2,
        max_src_positions=48,
        max_tgt_positions=16,
        variant="rdangle_shr",
        interval=1,
        fusion_enabled=bool(rng.random() < 0.8),
    )
    return cfg, shared


def test_06_interval_one_equals_stepwise_reencoding():
    with criterion(
        6, "interval-1 decoding == re-encode-then-decode-from-scratch at every step, 100 random configs, 1e-6"
    ) as info:
        rng = np.random.default_rng(61)
        worst = 0.0
        for trial in range(100):
            cfg, shared = _random_reencoder_config(rng)
            w = init_weights(cfg, seed=trial)
            if shared:
                tie_adaptive_encoder(w, cfg)
            src = [int(v) for v in rng.integers(0, cfg.src_vocab, size=int(rng.integers(2, 7)))]
            max_len = int(rng.integers(3, 7))

            result = greedy_decode(src, w, cfg, max_len=max_len)

            # The plainly-written pipeline: at each step, re-encode the source
            # against the prefix decoded so far, then run the decoder over the
            # whole prefix and take its next-token logits.
            prefix = [cfg.bos_id]
            for step in result.steps:
                enc = adaptive_encode(src, prefix, w, cfg)
                cross = (project_cross(enc, w, cfg, "v"), project_cross(enc, w, cfg, "k"))
                logits = kv_decode_full(prefix, cross, w, cfg)[0]
                gap = float(np.max(np.abs(logits - step.logits)))
                worst = max(worst, gap)
                assert gap <= 1e-6, f"trial {trial} step {step.step}: logit gap {gap:.3e}"
                assert int(np.argmax(logits)) == step.token
                prefix.append(step.token)
        assert worst <= 1e-6
        info["detail"] = f"worst per-step logit gap {worst:.1e}"


def test_07_degenerate_chain_reproduces_single_encoding_decoder():
    with criterion(
        7, "fusion off + tied encoder weights + interval ∞ decodes token-for-token like the single-encoding variant"
    ) as info:
        rng = np.random.default_rng(71)
        worst_gap = 0.0
        for trial in range(50):
            chain = ModelConfig(
                src_vocab=12,
                tgt_vocab=10,
                d_model=16,
                n_heads=4,
                d_ff=32,
                encoder_layers=2,
                decoder_layers=2,
                k1=1,
                k2=1,
                max_src_positions=48,
                max_tgt_positions=24,
                variant="rdangle_shr",
                interval=math.inf,
                fusion_enabled=False,
            )
            vanilla = replace(chain, variant="vanilla")
            w = tie_adaptive_encoder(init_weights(chain, seed=trial), chain)
            src = [int(v) for v in rng.integers(0, 12, size=int(rng.integers(2, 8)))]

            got = greedy_decode(src, w, chain, max_len=12)
            want = greedy_decode(src, w, vanilla, max_len=12)
            assert got.tokens == want.tokens, f"trial {trial}: {got.tokens} != {want.tokens}"
            for a, b in zip(got.steps, want.steps):
                worst_gap = max(worst_gap, float(np.max(np.abs(a.logits - b.logits))))
        info["detail"] = f"50/50 token-identical, worst logit gap {worst_gap:.1e}"


def test_08_cached_decoding_consumes_latest_reencoding():
    with criterion(
        8, "intervals 1/2/4/8: consumed encodings hash to the latest point, cache == from-scratch at 1e-6"
    ) as info:
        cfg_base = ModelConfig(
            src_vocab=12,
            tgt_vocab=10,
            d_model=16,
            n_heads=4,
            d_ff=32,
            encoder_layers=2,
            decoder_layers=2,
            k1=1,
            k2=1,
            max_src_positions=48,
            max_tgt_positions=24,
            variant="rdangle_shr",
        )
        w = init_weights(cfg_base, seed=8)
        rng = np.random.default_rng(81)
        sources = [
            [int(v) for v in rng.integers(0, 12, size=int(rng.integers(3, 7)))] for _ in range(6)
        ]
        worst = 0.0
        checked = 0
        for interval in (1, 2, 4, 8):
            cfg = replace(cfg_base, interval=interval)
            for src in sources:
                result = greedy_decode(src, w, cfg, max_len=12)
                emitted: list[int] = []
                encodings = {}  # re-derived offline, independent of the trace
                for step in result.steps:
                    point = 1 + (step.step - 1) // interval * interval
                    assert step.point == point
                    if point not in encodings:
                        encodings[point] = adaptive_encode(
                            src, [cfg.bos_id] + emitted[: point - 1], w, cfg
                        )
                    enc = encodings[point]
                    assert step.key_hash == encoding_hash(enc)
                    assert step.value_hash == step.key_hash  # shared keys/values
                    prefix = [cfg.bos_id] + emitted
                    cross = (project_cross(enc, w, cfg, "v"), project_cross(enc, w, cfg, "k"))
                    scratch = kv_decode_full(prefix, cross, w, cfg)[0]
                    gap = float(np.max(np.abs(scratch - step.logits)))
                    worst = max(worst, gap)
                    assert gap <= 1e-6, f"o={interval} step {step.step}: gap {gap:.3e}"
                    checked += 1
                    emitted.append(step.token)
        assert checked >= 100
        info["detail"] = f"{checked} steps checked, worst cache gap {worst:.1e}"


def test_09_separated_values_fixed_keys_move_on_schedule():
    with criterion(
        9, "separated variant: value encodings bit-identical all steps, keys change only at schedule points"
    ) as info:
        cfg = ModelConfig(
            src_vocab=12,
            tgt_vocab=10,
            d_model=16,
            n_heads=4,
            d_ff=32,
            encoder_layers=2,
            decoder_layers=2,
            k1=1,
            k2=1,
            max_src_positions=48,
            max_tgt_positions=24,
            variant="rdangle_sep",
            interval=3,
        )
        w = init_weights(cfg, seed=6)
        rng = np.random.default_rng(91)
        multi_point_decodes = 0
        for _ in range(8):
            src = [int(v) for v in rng.integers(0, 12, size=int(rng.integers(3, 7)))]
            result = greedy_decode(src, w, cfg, max_len=12)
            frozen = encoding_hash(encode(src, w, cfg))
            assert all(step.value_hash == frozen for step in result.steps)

            emitted: list[int] = []
            key_at_point = {}
            for step in result.steps:
                point = 1 + (step.step - 1) // cfg.interval * cfg.interval
                if point not in key_at_point:
                    key_at_point[point] = encoding_hash(
                        adaptive_encode(src, [cfg.bos_id] + emitted[: point - 1], w, cfg)
                    )
                # between points the key hash must not move; at a point it
                # must equal the offline re-encoding of the prefix seen there
                assert step.key_hash == key_at_point[point]
                emitted.append(step.token)
            if len(key_at_point) >= 2:
                multi_point_decodes += 1
                assert len(set(key_at_point.values())) >= 2
        assert multi_point_decodes >= 1, "no decode reached a second re-encoding point"
        info["detail"] = f"{multi_point_decodes}/8 decodes crossed multiple points"


# ---------------------------------------------------------------------------
# novelty statistics
# ---------------------------------------------------------------------------


def test_10_novel_ngram_counts_match_set_difference():
    with criterion(
        10, "novel bigram/trigram counts == set-difference oracle for words and tags, 60 corpora"
    ) as info:
        rng = np.random.default_rng(101)
        tags = list("NVDAJ")
        comparisons = 0
        for _ in range(60):
            vocab = [f"v{i}" for i in range(int(rng.integers(4, 9)))]

            def sentences(count):
                out = []
                for _ in range(count):
                    length = int(rng.integers(1, 9))
                    words = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=length)]
                    labels = [tags[int(i)] for i in rng.integers(0, len(tags), size=length)]
                    out.append((words, labels))
                return out

            train = sentences(int(rng.integers(4, 26)))
            test = sentences(int(rng.integers(2, 11)))
            for stream in (0, 1):  # words, then tags
                train_stream = [pair[stream] for pair in train]
                test_stream = [pair[stream] for pair in test]
                for n in (2, 3):
                    got = novel_ngram_count(train_stream, test_stream, n)
                    want = set_difference_novelty(train_stream, test_stream, n)
                    assert got == want, f"n={n}: {got} != {want}"
                    comparisons += 1
        assert comparisons == 240
        info["detail"] = f"{comparisons} counts, all equal"


# ---------------------------------------------------------------------------
# throughput and scale caveats
# ---------------------------------------------------------------------------


def test_11_degree_scoring_throughput_recorded():
    with criterion(
        11, "degree-scoring throughput vs ~100k-entry dictionary (soft target 50,000/min, non-gating)"
    ) as info:
        rng = np.random.default_rng(111)
        vocab = [f"w{i:03d}" for i in range(300)]
        entries = {(word,) for word in vocab}
        for count, n in ((50_000, 2), (45_000, 3), (18_000, 4)):
            grams = rng.integers(0, 300, size=(count, n))
            entries.update(tuple(vocab[int(j)] for j in row) for row in grams)
        dictionary = NGramDictionary.from_entries(entries)

        pool = [
            [vocab[int(j)] for j in rng.integers(0, 300, size=int(rng.integers(8, 15)))]
            for _ in range(10_000)
        ]
        examples = [ParallelExample(str(i), tuple(s), tuple(s)) for i, s in enumerate(pool)]
        degree_of(pool[0], dictionary)  # warm-up
        started = time.perf_counter()
        singles = [degree_of(sentence, dictionary) for sentence in pool]
        elapsed = time.perf_counter() - started
        started = time.perf_counter()
        batched = [degree for _, degree in score_pool(examples, dictionary)]
        batch_elapsed = time.perf_counter() - started
        per_minute = len(pool) / elapsed * 60
        batch_per_minute = len(pool) / batch_elapsed * 60

        assert batched == singles
        met = per_minute >= 50_000
        info["detail"] = (
            f"{per_minute:,.0f} sentences/min one degree_of call each, "
            f"{batch_per_minute:,.0f} in one score_pool call, against {len(entries):,} "
            f"entries — soft target {'met' if met else 'NOT met (recorded, non-gating)'}"
        )
        assert elapsed > 0  # the rates themselves are recorded, not gated


def test_12_scale_caveat_recorded():
    with criterion(12, "out-of-scope-at-desk-scale caveat recorded") as info:
        info["detail"] = (
            "translation-quality scores and absolute novelty counts for full-size "
            "corpora need the original datasets, taggers, and trained ensembles; "
            "the randomized property suites above stand in for them at this scale"
        )
