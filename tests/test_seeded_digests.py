"""The seeded contract, pinned: SHA-256 digests of every check entry of the
bench-scale seed-7 report, of every catalogue generator's corpus, and of
the stdout of the benchmark's verify run and of small runs of the other
subcommands.

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

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from maxhit import make_grid, msp_corpus, run_checks
from maxhit.cli import main
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
        "b792911626197d87d651e06d1a80d110cf1e6318b7e9aa605d5b96213bd6557f",
    "eq2-roundtrip":
        "acdef34c122b7101c68157ce0c808916f4abe558205cb25555ba27589bd78eaf",
    "eq3-negative-paths":
        "39979c79809e09502501d26847b7a2c7351f9143ed225ac22894b0035fc5ac57",
    "margins-ks":
        "e9943b2cb7743d381c6bee46f83733ededbc197d4ebda1fad4c8e8c99b56f108",
    "max-stability":
        "e0d4fa1e6a431ac7ce9368c936652b4bc20b6cf66b7f540bb6f8730dedea90e0",
    "takahashi":
        "c060f84a4b4bb73ef7b9a7fdd93b9ee6c240373cd76f348d5acd227b0cecc426",
    "example1-complete-dependence":
        "c815de1a8bd5b3812cf8c9276bbeed4ecfc70ca35600548ca80f85913c68d0cf",
    "prop2-null-on-constant-interval":
        "4b777d5b3f269c454b957482baa3ddc87ce577be531751f742383d11fc8c6629",
    "prop2-positive-when-norm-gt-1":
        "6b614daeca61a24b101e3f3f5dd7c157e37139575acc366679148ab85b556307",
    "survivor-bound":
        "c7b274defeff12cb4b46303e4232293b8c6c6b86258be04a191d8ed47d59dffa",
    "example2-m":
        "af04c59fa6db3e9dec512e52870bd850ee2c6fee605fdcb1cabba3157fac9406",
    "hcurve-bound":
        "67f2904f394f6789c4aaf5d8609d7e0135cacda004788e0fcb11bf5554a52e7e",
    "hintegral-bound":
        "2e3aedd9aebe7a6a9a62328529c8c8bd9afff9767ad964d857705edd052be713",
    "lemma31-closedform":
        "4a8aa6d613d7a6dc0243c09688d8b799638e276493048a706d11703518588b4d",
    "prop32-two-hit":
        "7083b764868726790f92d25d09294ee206a6ec5805243bcf2a4aa532e887daf8",
    "cor33-equivalences":
        "c62d22877904c8164f01b0ff4693fe757c5c81d626ddab12ba60b5ad748f4040",
    "nonlinear-supmax":
        "f62abf59890b889484a891a70b86437a4e390a23932719dbad516735fea9c2a9",
    "final-h":
        "2eba5b76d0537789ed8114834cda0f617efce55163144393b4c186704c02e4ff",
    "final-integral-3/2":
        "cc07937c690ad9942ce3bde9f3949023234c90c3a7812ca3b47c8c3b5d22d315",
    "final-two-hit":
        "edeef38cd2909c07884b8acb7d42e05296a9f620dfd2c9a51c7d23ccd5310ec0",
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

#: ``maxhit`` command lines whose stdout is pinned: the benchmark's verify
#: run, and small runs of the other subcommands. ``{name}`` stands for the
#: JSON file of catalogue generator ``name``, ``{level}`` for the constant
#: level function -1.
CLI_RUNS = {
    "verify": ["verify", "--suite", "paper", "--seed", "7", "--n", "4096",
               "--no-timestamp"],
    "simulate": ["simulate", "--generator", "{sine_bump}", "--grid", "101",
                 "--paths", "5", "--seed", "7"],
    "hitting": ["hitting", "--generator", "{two_branch}", "--levels", "-0.5,-1,-2",
                "--grid", "101", "--n", "2000", "--seed", "7"],
    "multihit": ["multihit", "--generator", "{nonlinear_example}", "--x0", "-1",
                 "--intervals", "0,0.3;0.4,0.6;0.7,1", "--grid", "101",
                 "--n", "2000", "--seed", "7"],
    "dnorm": ["dnorm", "--generator", "{piecewise_example}", "--level-function",
              "{level}", "--grid", "101", "--n", "2000", "--seed", "7"],
}

#: Per run, its exit code and the sha256 of its stdout (verify exits 1:
#: cor33-equivalences is red at this n).
CLI_DIGESTS = {
    "verify": (1, "2da3ba3e6e2fdd0db5c9a13959bcad359497e30bf79272250f6747aa17868014"),
    "simulate": (0, "910c14134e3a1d3c8fdb03fbf798cd8dd48adbb0256f731a3528caf04cc133c0"),
    "hitting": (0, "809edb882f04ec3879846fca07fbb91e0ac20e65c749f8e298044396ebb1b551"),
    "multihit": (0, "8d851c401b193154f1697a75328cf047fab968106958112ba84182a8a123e0cc"),
    "dnorm": (0, "daaec23a00dec26b791907a28c4c67f15a8179456072fef0957a4179a5f4486f"),
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


def cli_digests(directory: Path) -> dict[str, tuple[int, str]]:
    files = {"level": directory / "level.json"}
    files["level"].write_text(json.dumps({"shape": "constant", "level": -1.0}))
    for name, spec in CATALOGUE:
        files[name] = directory / f"{name}.json"
        files[name].write_text(json.dumps({"variant": name, "params": dataclasses.asdict(spec)}))
    out = {}
    for run, argv in CLI_RUNS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([arg.format(**files) for arg in argv])
        out[run] = (code, _sha256(stdout.getvalue().encode()))
    return out


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
def command_digests(tmp_path_factory):
    _pinned_numpy()
    return cli_digests(tmp_path_factory.mktemp("cli"))


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


def test_every_command_is_pinned(command_digests):
    assert list(command_digests) == list(CLI_DIGESTS)


@pytest.mark.parametrize("run", list(CLI_DIGESTS))
def test_command_output_is_pinned(command_digests, run):
    assert command_digests[run] == CLI_DIGESTS[run], (
        f"the seed-7 stdout of `maxhit {' '.join(CLI_RUNS[run])}` moved")


if __name__ == "__main__":
    print(f"NUMPY_PINNED = {np.__version__!r}")
    for title, table in (("CHECK_DIGESTS", check_digests()),
                         ("CORPUS_DIGESTS", corpus_digests())):
        print(f"{title} = {{")
        for key, digest in table.items():
            print(f'    "{key}":\n        "{digest}",')
        print("}")
    with tempfile.TemporaryDirectory() as directory:
        print("CLI_DIGESTS = {")
        for run, (code, digest) in cli_digests(Path(directory)).items():
            print(f'    "{run}": ({code}, "{digest}"),')
        print("}")
