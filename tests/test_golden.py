"""Every command's output pinned against the committed golden files.

tests/golden/acceptance.json is the report of
`kwlab verify --config configs/acceptance.cfg`; test_acceptance.py compares
the acceptance run with it entry by entry.  tests/golden/outputs.json holds
the exit code and the sha256 of every file that each command of OUTPUTS
writes; the test here reruns them and names every output that moved.

The bits hold for the x87 80-bit longdouble of the machine that wrote the
golden files (outputs.json records its np.finfo).  Where np.longdouble
differs, the report test compares statuses only and the test here exit
codes only.

A change that moves an output regenerates every golden file with

    PYTHONPATH=src python tests/test_golden.py

and names the entries that moved; the diff of tests/golden/ shows them.
"""

import hashlib
import json
import os
import pathlib
import tempfile

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
ACCEPTANCE_CFG = os.path.join(ROOT, "configs", "acceptance.cfg")

# each command runs in a directory of its own and writes only there
OUTPUTS = {
    "verify-all-seed-11": ["verify", "--suite", "all", "--seed", "11",
                           "--out", "report.json"],
    "verify-all-seed-11-flipped": ["verify", "--suite", "all", "--seed", "11",
                                   "--flip-star-sign", "--out", "report.json"],
    "verify-models-flipped": ["verify", "--suite", "models",
                              "--flip-star-sign", "--out", "report.json"],
    "verify-decomposition-15000": ["verify", "--suite", "decomposition",
                                   "--n", "15000", "--out", "report.json"],
    "energy-he": ["energy", "--model", "he", "--out", "energy.json"],
    "energy-alt": ["energy", "--model", "alt", "--out", "energy.json"],
    "plotdata-profiles": ["plotdata", "--target", "profiles", "--out-dir", "."],
    "plotdata-integrands": ["plotdata", "--target", "integrands",
                            "--out-dir", "."],
    "plotdata-eps-sweep": ["plotdata", "--target", "eps-sweep",
                           "--out-dir", "."],
    "solve-0.13": ["solve", "--y0", "0.13", "--out-profile", "profile.csv",
                   "--out-log", "solve-log.json"],
    "residual-nahm-pole": ["residual", "--model", "nahm-pole",
                           "--out", "residuals.csv"],
    "residual-nahm-singular": ["residual", "--model", "nahm-singular",
                               "--out", "residuals.csv"],
}


def longdouble_format() -> list:
    """The bits of np.longdouble that the golden files were written with."""
    info = np.finfo(np.longdouble)
    return [int(info.nmant), int(info.maxexp), int(info.minexp)]


def run_outputs(workdir: str) -> dict:
    """Each command of OUTPUTS in workdir/<name>: its exit code and the
    sha256 of every file it wrote, by file name.  stdout, which prints
    checkout paths, is not compared."""
    from kwlab.cli import main

    got, home = {}, os.getcwd()
    for name, argv in OUTPUTS.items():
        where = os.path.join(workdir, name)
        os.makedirs(where)
        os.chdir(where)
        try:
            code = main(argv)
        finally:
            os.chdir(home)
        files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in sorted(pathlib.Path(where).iterdir())}
        got[name] = {"exit": code, "sha256": files}
    return got


def test_every_output_matches_golden(tmp_path, capsys):
    with open(os.path.join(GOLDEN, "outputs.json")) as fh:
        golden = json.load(fh)
    got = run_outputs(str(tmp_path))
    capsys.readouterr()
    assert sorted(got) == sorted(golden["outputs"])
    if longdouble_format() != golden["longdouble"]:
        # another longdouble moves the bits: the exit codes must hold
        moved = [n for n in got if got[n]["exit"] != golden["outputs"][n]["exit"]]
    else:
        moved = [n for n in got if got[n] != golden["outputs"][n]]
    assert moved == [], f"outputs that moved: {moved}"


def regenerate():
    """Write tests/golden/: the acceptance report and outputs.json."""
    from kwlab.cli import main

    if main(["verify", "--config", ACCEPTANCE_CFG,
             "--out", os.path.join(GOLDEN, "acceptance.json")]) != 0:
        raise SystemExit("the acceptance run failed")
    with tempfile.TemporaryDirectory() as work:
        outputs = run_outputs(work)
    with open(os.path.join(GOLDEN, "outputs.json"), "w") as fh:
        json.dump({"longdouble": longdouble_format(), "outputs": outputs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
