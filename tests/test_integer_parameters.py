"""One rule for integer parameters, `errors.require_int`: at every entry point,
a float, a bool or a value below the parameter's least is a ConfigError whose
message names the parameter."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from compforge.corpus import ParallelExample, VocabCounts, filter_oov
from compforge.cover import CompositionalDegree, select_candidate_pool
from compforge.engine import ModelConfig, greedy_decode, init_weights
from compforge.errors import ConfigError
from compforge.ngrams import build_ngram_dictionary
from compforge.pipeline import PipelineConfig
from compforge.uncertainty import band_select

SENTENCES = [("a", "b", "c"), ("a", "b"), ("b", "c", "a")] * 4
EXAMPLES = [ParallelExample(f"e{i}", s, s) for i, s in enumerate(SENTENCES)]
SCORED = [(ex, CompositionalDegree(1, len(ex.target))) for ex in EXAMPLES]
RANKED = [(ex, float(i)) for i, ex in enumerate(EXAMPLES)]
BAND = {"discard_top": 2, "window": 6, "sample": 3, "seed": 0}
MODEL = ModelConfig(src_vocab=9, tgt_vocab=9, d_model=8, n_heads=2, d_ff=16,
                    encoder_layers=1, decoder_layers=1, max_src_positions=16,
                    max_tgt_positions=16)
MODEL_FIELDS = {"src_vocab": 3, "tgt_vocab": 3, "d_model": 1, "n_heads": 1,
               "encoder_layers": 1, "decoder_layers": 1, "k1": 0, "k2": 0,
               "max_src_positions": 1, "max_tgt_positions": 1, "bos_id": None,
               "eos_id": None, "d_ff": 1}
PIPELINE = {"oov_min_count": 0, "dict_min_count": 0, "max_n": 1, "pool_k": 1,
            "discard_top": 0, "window": 0, "sample": 0, "seed": 0}


def pipeline_config(inputs, name, value) -> PipelineConfig:
    params = {"max_n": 4, "pool_k": 40, "discard_top": 3, "window": 20, "sample": 5, name: value}
    return PipelineConfig(str(inputs["train"]), str(inputs["pool"]), str(inputs["dump"]),
                          str(inputs["tmp"] / "out"), **params)


# (entry point, parameter, its least (None: no bound), call(value, pipeline inputs))
ENTRY_POINTS = [
    ("filter_oov", "min_count", 0,
     lambda v, _: filter_oov(EXAMPLES, VocabCounts("target", {"a": 5}, 5), v)),
    ("build_ngram_dictionary", "min_count", 0,
     lambda v, _: build_ngram_dictionary(SENTENCES, min_count=v)),
    ("build_ngram_dictionary", "max_n", 1,
     lambda v, _: build_ngram_dictionary(SENTENCES, max_n=v)),
    ("select_candidate_pool", "k", 1, lambda v, _: select_candidate_pool(SCORED, v)),
    *[("band_select", name, 0,
       lambda v, _, name=name: band_select(RANKED, **{**BAND, name: v})) for name in BAND],
    *[("PipelineConfig", name, least,
       lambda v, inputs, name=name: pipeline_config(inputs, name, v).validate())
      for name, least in PIPELINE.items()],
    *[("ModelConfig", name, least, lambda v, _, name=name: replace(MODEL, **{name: v}))
      for name, least in MODEL_FIELDS.items()],
    ("greedy_decode", "max_len", 1,
     lambda v, _: greedy_decode([3, 4], init_weights(MODEL, seed=0), MODEL, v)),
    ("reencoding_points", "horizon", 1, lambda v, _: MODEL.reencoding_points(v)),
]

# A float is an integer plus a half; a parameter with no least has no "below" case.
CASES = [
    pytest.param(call, name, value, expected, id=f"{entry}-{name}-{kind}")
    for entry, name, least, call in ENTRY_POINTS
    for kind, value, expected in [
        ("float", (least or 0) + 0.5, "an integer"),
        ("bool", True, "an integer"),
        ("below", (least or 0) - 1, f"at least {least}"),
    ]
    if kind != "below" or least is not None
]


@pytest.mark.parametrize("call, name, value, expected", CASES)
def test_integer_parameter_rule(pipeline_inputs, call, name, value, expected):
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be {expected}"):
        call(value, pipeline_inputs)

