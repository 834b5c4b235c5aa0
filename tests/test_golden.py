"""Byte-identity of the ``--no-timing`` solve report on a small fixed corpus.

The greedy's tie-breaking is part of its contract, so an optimisation must
leave these reports unchanged to the byte.  Each case pins the sha256 of
``json.dumps(solve_report_dict(result, include_timings=False), indent=2)``
plus a newline, the text ``cds-opt solve --no-timing`` prints.  The
instance shapes the benchmark generates are pinned the same way, by the
sha256 of their ``serialize_instance`` text, so a change to how graphs are
built or checked shows directly if it alters any generated corpus.  The
ratio sweep's CSV, ``scripts/ratio_corpus.json`` run through the batch
harness, is pinned by the sha256 of its ``write_csv`` text.  A digest may
change only with a change that is meant to change outputs, and that change
must say which outputs moved and why.
"""

import hashlib
import io
import json

import pytest

from cdsopt.bench import load_batch_spec, run_batch, write_csv
from cdsopt.generators import gen_fig1, gen_random_connected, gen_udg
from cdsopt.graph import serialize_instance
from cdsopt.solver import solve, solve_report_dict
from helpers import RATIO_CORPUS

COST_RANGE = (0.1, 10.0)


def _udg(n, side, seed, with_oracle=False):
    return lambda: solve(gen_udg(n, side, COST_RANGE, seed), with_oracle=with_oracle)


def _random(n, seed, with_oracle=False):
    return lambda: solve(gen_random_connected(n, 3.0 / n, COST_RANGE, seed, m=2), with_oracle=with_oracle)


def _fig1(d, connector, with_oracle=False):
    def run():
        inst, designated = gen_fig1(d, 0.01)
        return solve(inst, given_ds=sorted(designated), connector=connector, with_oracle=with_oracle)

    return run


CASES = {
    "udg-n150-s1": (_udg(150, 4.3, 1),
        "9c6af578eab0ef95565c75b95c628c3e6c0d6cb2cf4ab030ad256bae0da12723",
    ),
    "udg-n180-s2": (_udg(180, 4.7, 2),
        "262409bbdf320a8579be31cc7df18200e4c5558b807ae4b8e3358e0a298731d9",
    ),
    "udg-n200-s3": (_udg(200, 5.0, 3),
        "c5075543c02ceeeea9c31432bbb25321ed61b8e0c6cdb8b771eac1e4880735b7",
    ),
    # the first udg-star benchmark instance at seed 1, whose text udg-n800-side10-s1000 pins
    "udg-n800-s1000": (_udg(800, 10.0, 1000),
        "696d4bb256d40cb6da6d81e5295db9cd38fbc17f21718f8d7b977eaa4d89ccbb",
    ),
    "random-n200-m2-s1": (_random(200, 1),
        "89746bebeebf4b98b341644aee41c757e4935cacef4c1a888648b0b9c6b77274",
    ),
    "random-n200-m2-s2": (_random(200, 2),
        "06fe5bc374fd8494b73d3b7d1345126914ed961e67794576ac47e0f2a5ed9958",
    ),
    "udg-n12-s1-oracle": (_udg(12, 2.2, 1, with_oracle=True),
        "509de7906387a4f8e06132007d94993c6d556bf8eb67c07d8b08b5c5b734cce5",
    ),
    "random-n14-m2-s1-oracle": (_random(14, 1, with_oracle=True),
        "b49eb9adf9016339e8303b04114d97ba2b8e7eb1f38f50d63633931aa8feb738",
    ),
    "fig1-d30-star": (_fig1(30, "star"),
        "f8f63fc0996e539771675aefb84ee887dfd423cdfea520e184221fb45d74239d",
    ),
    "fig1-d30-pairwise": (_fig1(30, "pairwise"),
        "35eed0c47da5d9bacf3d1ce48d7292e2151018dc22b29562537e222aeb85dbc7",
    ),
    # the ladder has equal-cost optima, so the oracle block's sets follow the search order
    "fig1-d4-star-oracle": (_fig1(4, "star", with_oracle=True),
        "545e75c193b748c572e65a103903469e692266d8d46a19cc1ca8bb8eed37c70b",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_timing_report_digest(name):
    run, digest = CASES[name]
    text = json.dumps(solve_report_dict(run(), include_timings=False), indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


CORPORA = {
    "udg-n800-side10-s1000": (lambda: gen_udg(800, 10.0, COST_RANGE, 1000),
        "322a577e708d2e1ac4950a81b18a8fff5a8d5e4578ed13ab96472407b4b71f26",
    ),
    "udg-n18-side2.8-s0": (lambda: gen_udg(18, 2.8, COST_RANGE, 0),
        "992872229fdfe0e833c1ffc870cd2976ef39fc4e13686d87275d9bfb96d6ae74",
    ),
    "random-n2000-m4-s1000": (lambda: gen_random_connected(2000, 3 / 2000, COST_RANGE, 1000, m=4),
        "020a1354d0dd512ab54ff736cd56073343425ae0e372dc39b0e561476bf96c4f",
    ),
    "fig1-d401": (lambda: gen_fig1(401, 0.01)[0],
        "424967e83e80267ee9a7788d7b3ec0358e7899f9b29986e2a94b1b6924ce3869",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_generated_instance_digest(name):
    generate, digest = CORPORA[name]
    text = serialize_instance(generate())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_ratio_corpus_csv_digest():
    buf = io.StringIO()
    write_csv(run_batch(load_batch_spec(RATIO_CORPUS.read_text(encoding="utf-8"))), buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "fbdf5ba3f6eee486885710d5a3a75297e25c539e917f69cb27c902fdca6519ce"
