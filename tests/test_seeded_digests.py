"""The seeded contract, pinned: SHA-256 digests of every check entry of the
bench-scale seed-7 report and of every catalogue generator's corpus.

A change that moves a seeded value, on purpose or not, fails here and names
the check or generator whose output moved. A change that moves one on
purpose updates its digest in the same commit and says why.

The digests hold for the numpy version in ``NUMPY_PINNED``: the draws come
from numpy's generators and its float reductions (and SineBump's paths from
``np.sin``, whose SIMD path may also differ by CPU). Under another numpy the
tests are skipped, and the skip reason names both versions; print that
version's table with ``PYTHONPATH=src python tests/test_seeded_digests.py``.
At the pinned version a mismatch always fails.
"""

import hashlib
import json

import numpy as np
import pytest

from maxhit import make_grid, msp_corpus, run_checks
from maxhit.verify import CATALOGUE

NUMPY_PINNED = "2.4.6"

SEED = 7
#: The benchmark's verify-paper scale: ``verify --suite paper --n 4096``.
REPORT_N, REPORT_GRID = 4096, 1001
CORPUS_N, CORPUS_GRID = 4096, 101

#: sha256 of ``json.dumps(entry, sort_keys=True)`` per check entry of the
#: ``--no-timestamp`` report.
CHECK_DIGESTS = {
    "eq1-moments":
        "6721f99275cad01be32c07fdcb514a3863414a7c3df760da6bccac6bb04257a0",
    "eq2-roundtrip":
        "f08bdaa813e6c14f9a4d5dc942a772b3d7ef19eb7824f3d96fd466073597bb63",
    "eq3-negative-paths":
        "39979c79809e09502501d26847b7a2c7351f9143ed225ac22894b0035fc5ac57",
    "margins-ks":
        "e9943b2cb7743d381c6bee46f83733ededbc197d4ebda1fad4c8e8c99b56f108",
    "max-stability":
        "64434423e918616a8285cc093313bcfaed6c78b3be3d9ee5ea3954e0edb2dd18",
    "takahashi":
        "c060f84a4b4bb73ef7b9a7fdd93b9ee6c240373cd76f348d5acd227b0cecc426",
    "example1-complete-dependence":
        "cbae9ce1fb9e85d2a54905563423ef92a1f20a7dc746fa6e836ea6d971fbdfd1",
    "prop2-null-on-constant-interval":
        "4b777d5b3f269c454b957482baa3ddc87ce577be531751f742383d11fc8c6629",
    "prop2-positive-when-norm-gt-1":
        "4299aed073d15cafcbe4bfa107531e9d3b9de0b9b98ed5365bf1051349fcb5f0",
    "survivor-bound":
        "9372c385657534724e86380a64b80ea9784f326cc89f360e6f0dbc08a5f52fee",
    "example2-m":
        "af04c59fa6db3e9dec512e52870bd850ee2c6fee605fdcb1cabba3157fac9406",
    "hcurve-bound":
        "1263d01b766a6699ab669f670739d59a190a26a0314580070f874c882a5b0bb9",
    "hintegral-bound":
        "bc86b7684513145487a9e27ab8f99d325c309396d629cd070c01779608c3e430",
    "lemma31-closedform":
        "a46cff4897d55c8629e717a58129b5f5808a9dbe6b3b55b524224b29462425d6",
    "prop32-two-hit":
        "9a4044efeffefe8d7d12fa56b45d223fbf731df3212380e2983edc72a6106ce0",
    "cor33-equivalences":
        "a5c60b8c9d8d48094e14a438c3e56efc69efa7d792b7cc11e5d9081e2f41f26d",
    "nonlinear-supmax":
        "f62abf59890b889484a891a70b86437a4e390a23932719dbad516735fea9c2a9",
    "final-h":
        "ecb18299daaff6ef09cfa4b9d05b1ba36e1d95388c9af560c09871d461deff54",
    "final-integral-3/2":
        "e40e524fc6c2aa8b7495c242bb696ef44339a028bcf66ed5bcba69bf75ea29dd",
    "final-two-hit":
        "51ffedac52badc2a6646ff136f618a77a4ee67fd09ce29f2a55e309e8b1ab285",
    "final-no-three-hit":
        "b101e43815bf58203e38f001aaa0dd454666dabf803930208edb400a58ff853f",
    "shared-draw-invariants":
        "ec12d8cc7c7fe8b659e9666d22c3d042436ca7b3a826cbacc7bc6b8469952f88",
    "stopping-exactness":
        "c0e9c80ab2ff74916468e4adc49cbd76316a67bf9318f6c4244c738f94c76618",
}

#: sha256 of the little-endian float64 bytes of ``msp_corpus(spec, grid, n, SEED)``.
CORPUS_DIGESTS = {
    "complete_dependence":
        "4e803142a349e9c17cd7e0dd03a749dce0e6ef46c0879f433d2f1be9874bc4ea",
    "piecewise_example":
        "92220efc5ef010312597aae6e9e45705a31ed913379a6cc6fd66e7b5860652cd",
    "nonlinear_example":
        "b26464bb922dea7e531fad8bc2c49a15e223c7ffeb9fd0759ddcd55ad78f7ecb",
    "two_branch":
        "32ba043b4962bbdd1c4cd41a0d0840a5844ed662599f7fffa97559f7d97c6cb3",
    "sine_bump":
        "284db3570cbf7fa1281ee4ef6ae6829c9ccf17d17005f1266770e67760c5f210",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digests() -> dict[str, str]:
    report = run_checks("paper", SEED, n_default=REPORT_N, grid_points=REPORT_GRID,
                        threads=2, timestamp=False)
    return {
        entry["id"]: _sha256(json.dumps(entry, sort_keys=True, allow_nan=False).encode())
        for entry in report.as_dict(runtime=False)["checks"]
    }


def corpus_digests() -> dict[str, str]:
    grid = make_grid(CORPUS_GRID)
    return {
        name: _sha256(np.ascontiguousarray(
            msp_corpus(spec, grid, CORPUS_N, SEED), dtype="<f8").tobytes())
        for name, spec in CATALOGUE
    }


def _pinned_numpy():
    if np.__version__ != NUMPY_PINNED:
        pytest.skip(f"digests are pinned at numpy {NUMPY_PINNED}, this is numpy "
                    f"{np.__version__}; print this version's table with "
                    "`PYTHONPATH=src python tests/test_seeded_digests.py`")


@pytest.fixture(scope="module")
def report_digests():
    _pinned_numpy()
    return check_digests()


@pytest.fixture(scope="module")
def generator_digests():
    _pinned_numpy()
    return corpus_digests()


def test_every_check_is_pinned(report_digests):
    assert list(report_digests) == list(CHECK_DIGESTS)


@pytest.mark.parametrize("check_id", list(CHECK_DIGESTS))
def test_check_entry_is_pinned(report_digests, check_id):
    assert report_digests[check_id] == CHECK_DIGESTS[check_id], (
        f"the seed-{SEED} report entry of {check_id!r} moved")


def test_every_generator_is_pinned(generator_digests):
    assert list(generator_digests) == list(CORPUS_DIGESTS)


@pytest.mark.parametrize("name", list(CORPUS_DIGESTS))
def test_corpus_is_pinned(generator_digests, name):
    assert generator_digests[name] == CORPUS_DIGESTS[name], (
        f"the seed-{SEED} msp_corpus of {name!r} moved")


if __name__ == "__main__":
    print(f"NUMPY_PINNED = {np.__version__!r}")
    for title, table in (("CHECK_DIGESTS", check_digests()),
                         ("CORPUS_DIGESTS", corpus_digests())):
        print(f"{title} = {{")
        for key, digest in table.items():
            print(f'    "{key}":\n        "{digest}",')
        print("}")
