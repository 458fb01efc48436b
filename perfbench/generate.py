"""Deterministic, seeded inputs for the benchmark workloads.

    python3 perfbench/generate.py --kind pipeline-detect --seed 0 --out DIR

writes every input of one kind of workload into DIR, plus ``inputs.json``
listing each file with its sha256. The same kind and seed always give
byte-identical files. Both decode workloads read the ``decode`` inputs.
Paths inside ``pipeline.json`` are relative to the repository root, so
pipeline manifests do not depend on where the checkout lives.

The inputs are made by compforge's own functions (candidate selection,
``init_weights``/``save_weights``), so a cached input set is only valid for
the source tree that made it; ``run.py`` keys its cache on that tree.

The pipeline workload needs an ensemble dump that covers exactly the
candidate pool, as in the paper, where the ensemble only decodes the top-k
pool. The generator finds the candidates by running the detection stages
(OOV filter, dictionary, degrees, selection) once, untimed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from compforge.corpus import (  # noqa: E402
    build_vocab_counts,
    filter_oov,
    iter_side,
    load_parallel_corpus,
)
from compforge.cover import select_candidate_pool  # noqa: E402
from compforge.engine import ModelConfig, init_weights, save_weights  # noqa: E402
from compforge.ngrams import build_ngram_dictionary  # noqa: E402
from compforge.pipeline import score_pool  # noqa: E402

# Sizes are chosen so that one run_pipeline takes 2-3 s on a 2-core x86 box,
# so one run repeats it often enough for a steady median. About 11k of the
# 15k pool survive the OOV filter, above score_pool's 10k threshold, so the
# default (multiprocessing) scoring path is measured. The dump of the 300
# candidates is rich enough (4 members, 6-12-way supports) that reading and
# scoring it is about an eighth of the op.
PIPELINE = dict(
    types=2500, zipf=1.1, train=4000, pool=15_000, lengths=(8, 40),
    boilerplate_share=0.15, templates=400, members=4, support=(6, 12),
    config=dict(oov_min_count=3, dict_min_count=3, max_n=8, pool_k=300,
                discard_top=20, window=240, sample=80),
)

# The decode geometry of the ROADMAP baseline. The model is initialised as
# rdangle_sep because only that variant allocates every parameter stack the
# decode configs need (an rdangle_shr init lacks the plain encoder).
DECODE_MODEL = dict(
    src_vocab=1000, tgt_vocab=1000, d_model=256, n_heads=8, encoder_layers=6,
    decoder_layers=6, k1=3, k2=3, max_src_positions=104, max_tgt_positions=64,
    variant="rdangle_sep", interval=4,
)
DECODE_SOURCES = 16
SOURCE_LEN = 40
EOS_BIAS = -100.0

KINDS = ("pipeline-detect", "decode")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_tree(paths) -> str:
    """One sha256 over the names (relative to the checkout) and digests of `paths`."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(f"{path.relative_to(ROOT)}\0{sha256_file(path)}\n".encode())
    return digest.hexdigest()


def _zipf(types: int, exponent: float) -> np.ndarray:
    p = np.arange(1, types + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def _sentences(rng, n, probs, lengths, words, templates=None, share=0.0):
    """`n` token lists; a `share` of them copy a template with one slot changed."""
    lens = rng.integers(lengths[0], lengths[1] + 1, size=n)
    ids = rng.choice(len(probs), size=int(lens.sum()), p=probs)
    bounds = np.concatenate([[0], np.cumsum(lens)])
    out = [list(words[ids[bounds[i]:bounds[i + 1]]]) for i in range(n)]
    if templates:
        for i in np.flatnonzero(rng.random(n) < share):
            sent = list(templates[int(rng.integers(len(templates)))])
            sent[int(rng.integers(len(sent)))] = words[rng.choice(len(probs), p=probs)]
            out[i] = sent
    return out


def _write_corpora(spec: dict, rng, out: Path) -> None:
    tgt_words = np.array([f"t{i}" for i in range(spec["types"])])
    src_words = np.array([f"s{i}" for i in range(spec["types"])])
    probs = _zipf(spec["types"], spec["zipf"])
    templates = _sentences(rng, spec["templates"], probs, spec["lengths"], tgt_words)

    def side_pairs(n):
        tgt = _sentences(rng, n, probs, spec["lengths"], tgt_words,
                         templates, spec["boilerplate_share"])
        src = _sentences(rng, n, probs, spec["lengths"], src_words)
        return zip(src, tgt)

    with open(out / "train.tsv", "w", encoding="utf-8") as fh:
        for src, tgt in side_pairs(spec["train"]):
            fh.write(f"{' '.join(src)}\t{' '.join(tgt)}\n")
    with open(out / "pool.jsonl", "w", encoding="utf-8") as fh:
        for i, (src, tgt) in enumerate(side_pairs(spec["pool"])):
            record = {"id": f"p{i}", "source": " ".join(src), "target": " ".join(tgt)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _candidates(out: Path, config: dict) -> list:
    """Stages 1-4 of the pipeline, run once to learn the candidate pool."""
    train = load_parallel_corpus(out / "train.tsv")
    pool = load_parallel_corpus(out / "pool.jsonl")
    filtered = filter_oov(pool, build_vocab_counts(train, "target"), config["oov_min_count"])
    dictionary = build_ngram_dictionary(
        iter_side(train, "target"), config["dict_min_count"], config["max_n"]
    )
    scored = score_pool(filtered, dictionary, "target", workers=1)
    return list(select_candidate_pool(scored, config["pool_k"], "target").examples)


def _write_dump(spec: dict, rng, candidates, path: Path) -> None:
    """Ensemble dump with member disagreement that varies per example."""
    members = spec["members"]
    lo, hi = spec["support"]
    with open(path, "w", encoding="utf-8") as fh:
        for ex in candidates:
            widths = rng.integers(lo, hi + 1, size=len(ex.target))
            starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
            base = rng.gamma(1.0, size=int(widths.sum()))
            base /= np.repeat(np.add.reduceat(base, starts), widths)
            agreement = float(np.exp(rng.normal(1.5, 1.0)))
            rows = rng.gamma(agreement * base + 0.05, size=(members, base.size))
            rows /= np.repeat(np.add.reduceat(rows, starts, axis=1), widths, axis=1)
            support = [
                [tok] + [f"t{int(j)}" for j in rng.integers(spec["types"], size=w - 2)]
                + ["<other>"]
                for tok, w in zip(ex.target, widths)
            ]
            probs = [
                [row[s:s + w].tolist() for s, w in zip(starts, widths)] for row in rows
            ]
            record = {"id": ex.id, "tokens": list(ex.target), "support": support,
                      "probs": probs}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _generate_pipeline(seed: int, out: Path, final: Path) -> None:
    spec = PIPELINE
    rng = np.random.default_rng([seed, KINDS.index("pipeline-detect")])
    _write_corpora(spec, rng, out)
    config = dict(spec["config"])
    candidates = _candidates(out, config)
    _write_dump(spec, rng, candidates, out / "ensemble.jsonl")
    rel = final.relative_to(ROOT)
    config.update(
        train_path=str(rel / "train.tsv"),
        pool_path=str(rel / "pool.jsonl"),
        ensemble_dump_path=str(rel / "ensemble.jsonl"),
        out_dir=str(rel / "out"),
        seed=seed,
    )
    (out / "pipeline.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")


def _generate_decode(seed: int, out: Path) -> None:
    cfg = ModelConfig(**DECODE_MODEL)
    weights = init_weights(cfg, seed=seed)
    # A strongly negative EOS bias makes every decode run exactly max_len steps.
    weights.data["out_b"][cfg.eos_id] += EOS_BIAS
    save_weights(out / "model.bin", weights, cfg)
    rng = np.random.default_rng([seed, KINDS.index("decode")])
    sources = rng.integers(3, cfg.src_vocab, size=(DECODE_SOURCES, SOURCE_LEN))
    (out / "sources.json").write_text(json.dumps({"sources": sources.tolist()}) + "\n")


def generate(kind: str, seed: int, final: Path) -> None:
    """Write the inputs of (`kind`, `seed`) into `final`, atomically."""
    tmp = final.with_name(final.name + ".partial")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if kind == "pipeline-detect":
        _generate_pipeline(seed, tmp, final)
    else:
        _generate_decode(seed, tmp)
    digests = {p.name: sha256_file(p) for p in sorted(tmp.iterdir())}
    (tmp / "inputs.json").write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=KINDS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.kind, args.seed, args.out.resolve())


if __name__ == "__main__":
    main()
