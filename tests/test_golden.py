"""Golden outputs: every subcommand at a small size, compared byte for byte.

Each case runs ``phctrl.cli.main`` in-process.  Its captured streams and
the files it writes are stored as ``tests/golden/<case>.<stream>``:
``stdout``, ``stderr`` (only when non-empty) and one file per output flag
(``json``, ``csv``).  A report that carries ``wall_time`` is stored and
compared through ``stable_json``, so the stored bytes do not depend on
the clock.  Later cases read earlier golden files as their input.

Regenerate (only to record a change whose diff has been explained):

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from phctrl.cli import build_parser, main
from phctrl.experiments import stable_json

GOLDEN = Path(__file__).parent / "golden"

# (name, argv, config file contents or None); "{golden}" is the golden
# directory and "{out}" a fresh directory whose files are the outputs.
CASES = [
    ("witness", ["witness", "--n", "3", "--m", "2"], None),
    ("sample_ph", ["sample", "--n", "3", "--m", "2", "--seed", "7"], None),
    ("sample_pht", ["sample", "--kind", "pht", "--n", "3", "--m", "2",
                    "--count", "3", "--seed", "7"], None),
    ("sample_uncontrollable", ["sample", "--kind", "uncontrollable", "--n", "4",
                               "--k", "2", "--m", "1", "--count", "2",
                               "--seed", "3"], None),
    ("sample_complex", ["sample", "--field", "complex", "--n", "3", "--m", "2",
                        "--seed", "5"], None),
    ("sample_shifted_gram", ["sample", "--h-law", "shifted-gram", "--j-scale",
                             "0.3", "--n", "3", "--m", "2", "--count", "2",
                             "--seed", "9"], None),
    ("validate", ["validate", "--in", "{golden}/sample_ph.stdout"], None),
    ("validate_ph", ["validate", "--in", "{golden}/sample_ph.stdout", "--ph"], None),
    ("pack_complex", ["pack", "--in", "{golden}/sample_complex.stdout"], None),
    ("unpack_complex", ["unpack", "--in", "{golden}/pack_complex.stdout"], None),
    ("check", ["check", "--in", "{golden}/sample_ph.stdout"], None),
    ("mc", ["mc-genericity", "--n", "3", "--m", "2", "--trials", "40",
            "--seed", "21", "--cross-check", "--json", "{out}/json",
            "--csv", "{out}/csv"], None),
    ("mc_config", ["mc-genericity", "--json", "{out}/json", "--csv", "{out}/csv"],
     {"n": 3, "m": 2, "trials": 40, "seed": 21, "cross_check": True,
      "h_law": "shifted_gram", "gram_eps": 0.5, "j_scale": 1}),
    ("probe_config", ["perturb-probe", "--trials-per-eps", "10",
                      "--json", "{out}/json", "--csv", "{out}/csv"],
     {"n": 3, "m": 1, "k": 1, "seed": 5, "eps_grid": "0,1e-4,1e-2"}),
    ("dist", ["dist-unctrb", "--in", "{golden}/witness.stdout", "--grid-points",
              "5", "--refine-levels", "2", "--json", "{out}/json"], None),
    ("prop1", ["prop1", "--x", "3.0", "--json", "{out}/json"], None),
]

FLAGS = {
    "witness": {"--n", "--m", "--out", "-o"},
    "validate": {"--in", "--tol", "--ph", "--no-ph", "--delta", "--out", "-o"},
    "pack": {"--in", "--tol", "--out", "-o"},
    "unpack": {"--in", "--out", "-o"},
    "sample": {"--n", "--m", "--field", "--kind", "--k", "--h-law", "--wishart-p",
               "--gram-eps", "--j-scale", "--b-scale", "--seed", "--count",
               "--out", "-o"},
    "check": {"--in", "--tol", "--rank-rel-tol", "--pbh-tol", "--out", "-o"},
    "mc-genericity": {"--n", "--m", "--field", "--h-law", "--wishart-p",
                      "--gram-eps", "--j-scale", "--b-scale", "--trials", "--seed",
                      "--cross-check", "--no-cross-check", "--rank-rel-tol",
                      "--json", "--csv"},
    "perturb-probe": {"--n", "--k", "--m", "--field", "--eps-grid",
                      "--trials-per-eps", "--seed", "--max-retries",
                      "--rank-rel-tol", "--json", "--csv"},
    "dist-unctrb": {"--in", "--tol", "--grid-points", "--refine-levels",
                    "--margin", "--json"},
    "prop1": {"--i-max", "--x", "--json"},
}


def _normalized(text: str) -> str:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(data, dict) and "wall_time" in data:
        return stable_json(data) + "\n"
    return text


def run_case(name: str, argv: list, config, work: Path) -> dict:
    """Run one case; return {stream: text} for every non-empty output."""
    out_dir = work / name
    out_dir.mkdir()
    argv = [a.format(golden=GOLDEN, out=out_dir) for a in argv]
    if config is not None:
        config_path = work / f"{name}.config.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 0, stderr.getvalue()
    streams = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for path in out_dir.iterdir():
        streams[path.name] = _normalized(path.read_text())
    return {k: v for k, v in streams.items() if v}


@pytest.mark.parametrize("name,argv,config", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, config, tmp_path):
    got = run_case(name, argv, config, tmp_path)
    stored = {p.suffix[1:]: p.read_text() for p in GOLDEN.glob(f"{name}.*")}
    assert sorted(got) == sorted(stored)
    for stream, text in got.items():
        assert text == stored[stream], f"{name}.{stream} differs from the golden file"


def test_subcommand_flags():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == {name: flags | {"--config"} for name, flags in FLAGS.items()}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, config in CASES:
            for stream, text in run_case(name, argv, config, Path(tmp)).items():
                (GOLDEN / f"{name}.{stream}").write_text(text)
