"""Output pin: SHA-256 digests of stdout, exit codes and flow CSVs.

Byte-identical outputs are the contract of the command line, so a change
that is meant to keep them must keep these digests.  Each case runs
``rbkit.cli.main`` in process on a fixed parameter file; the flows use the
translation ``T1``, the plane rotation ``G`` and the boosts ``G1`` (n=3) and
``G2`` (n=5), whose RK4 steps and closed forms need only float arithmetic
and no transcendental functions.  The boost components have several terms
each, so their CSVs also pin the order in which an RK4 stage sums them.  The
dilation ``D`` is pinned too; its closed form takes ``math.exp``, so its
digest assumes the platform's ``exp`` rounds as glibc's does.  The
fixed points (the origin under ``D`` and ``G``) and the axis-bound boost
(a ``G1`` start with r0 = 0) pin the degenerate branches of the closed
forms.  Escapes, usage errors and a failed write are pinned too: exit 64
leaves stdout empty and writes no CSV, and so does exit 74, a full device
as ``--out`` (a case skipped where ``/dev/full`` is missing).

As a script the file needs only the standard library, so the pins can be
checked under any installed Python, with or without pytest:
``PYTHONPATH=src python tests/test_golden.py --check`` runs every case,
prints each one that differs from ``GOLDEN`` and exits 1 if any does.  To
re-record after an intended output change, run it without ``--check`` and
paste the printed table over ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import json
import os

from rbkit.cli import main

PARAMS = {
    "n3": {"n": 3, "a": ["1", "-2"], "b": "1/2", "c": ["3", "1"], "rho": "1"},
    "n5": {"n": 5, "a": ["1", "2", "0", "-1"], "b": "1", "c": ["0", "1", "3", "1"], "rho": "1/3"},
    "n7": {
        "n": 7,
        "a": ["1", "0", "-1/2", "2", "1", "0"],
        "b": "0",
        "c": ["0", "1", "1", "0", "-3", "1/3"],
        "rho": "2",
    },
    "n4": {"n": 4, "a": ["1", "0", "2"], "b": "1", "c": ["0", "1", "-1"], "rho": "1"},
    # every a_k and c_k nonzero: the largest dense Pfaffian MAX_PARAMS_N allows
    "n15": {
        "n": 15,
        "a": ["1", "-2", "1/2", "3", "-1", "2/3", "1", "-1/3", "2", "-3", "1/4", "1", "-1/2", "5"],
        "b": "1/2",
        "c": ["2", "1", "-1", "1/3", "3", "-2", "1/2", "1", "-3/2", "1", "2", "-1", "4", "-1/5"],
        "rho": "1",
    },
}

# argv with {params} and {csv} placeholders
CASES = {
    "algebra_n2": ["algebra", "--n", "2"],
    "algebra_n3": ["algebra", "--n", "3"],
    "algebra_n4": ["algebra", "--n", "4"],
    "algebra_n5": ["algebra", "--n", "5"],
    "algebra_n7": ["algebra", "--n", "7"],
    "contact_n3": ["contact", "--params", "{n3}"],
    "contact_n5": ["contact", "--params", "{n5}"],
    "contact_n7": ["contact", "--params", "{n7}"],
    "contact_n15": ["contact", "--params", "{n15}"],
    "verify_n3": ["verify", "--params", "{n3}", "--trials", "3"],
    "verify_n5": ["verify", "--params", "{n5}", "--trials", "3"],
    "flow_T1": ["flow", "--gen", "T1", "--n", "3", "--point", "0.5,-0.25,1.5",
                "--t-max", "2", "--dt", "0.01", "--out", "{csv}"],
    "flow_G": ["flow", "--gen", "G", "--n", "2", "--point", "0.3,1.2",
               "--t-max", "1", "--dt", "0.01", "--out", "{csv}"],
    "flow_G1": ["flow", "--gen", "G1", "--n", "3", "--point", "0.4,-0.3,1.1",
                "--t-max", "3", "--dt", "0.01", "--out", "{csv}"],
    "flow_G2": ["flow", "--gen", "G2", "--n", "5", "--point", "0.2,-0.5,0.7,-0.1,0.9",
                "--t-max", "3", "--dt", "0.01", "--out", "{csv}"],
    # the heaviest operation of the benchmark: 30000 RK4 steps and CSV rows
    "flow_G2_long": ["flow", "--gen", "G2", "--n", "5", "--point", "0.2,-0.5,0.7,-0.1,0.9",
                     "--t-max", "30", "--dt", "0.001", "--out", "{csv}"],
    # the dilation's closed form is the one that calls math.exp
    "flow_D": ["flow", "--gen", "D", "--n", "3", "--point", "0.2,0.1,0.7",
               "--t-max", "1", "--dt", "0.01", "--out", "{csv}"],
    # fixed points and the axis-bound boost (r0 == 0) of the closed forms
    "flow_G1_axis": ["flow", "--gen", "G1", "--n", "2", "--point", "0.5,0",
                     "--t-max", "1", "--dt", "0.01", "--out", "{csv}"],
    "flow_D_origin": ["flow", "--gen", "D", "--n", "3", "--point", "0,0,0",
                      "--t-max", "1", "--dt", "0.1", "--out", "{csv}"],
    "flow_G_origin": ["flow", "--gen", "G", "--n", "2", "--point", "0,0",
                      "--t-max", "1", "--dt", "0.1", "--out", "{csv}"],
    # exit 2: a partial CSV when the trajectory leaves the safe region,
    # the start row alone when the first RK4 step overflows
    "escape_boundary": ["flow", "--gen", "G", "--n", "2", "--point", "2,0.00001",
                        "--t-max", "1", "--dt", "0.001", "--out", "{csv}"],
    "escape_overflow": ["flow", "--gen", "G1", "--n", "2", "--point", "1e8,1",
                        "--t-max", "1e150", "--dt", "1e150", "--out", "{csv}"],
    # exit 64: empty stdout and no CSV
    "usage_bad_gen": ["flow", "--gen", "Q7", "--n", "3", "--point", "0,0,1", "--out", "{csv}"],
    "usage_arity": ["flow", "--gen", "T1", "--n", "3", "--point", "0,1", "--out", "{csv}"],
    "usage_below_boundary": ["flow", "--gen", "T1", "--n", "2", "--point", "0,-1", "--out", "{csv}"],
    "usage_nan_point": ["flow", "--gen", "G1", "--n", "2", "--point=nan,1", "--out", "{csv}"],
    "usage_inf_dt": ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", "--dt=inf", "--out", "{csv}"],
    "usage_step_cap": ["flow", "--gen", "T1", "--n", "2", "--point", "0,1",
                       "--t-max", "1e300", "--dt", "1e-300", "--out", "{csv}"],
    "usage_contact_even": ["contact", "--params", "{n4}"],
    "usage_trials_cap": ["verify", "--params", "{n3}", "--trials", "10001"],
    # exit 74: the rows fail on a full device; empty stdout
    "io_error_out": ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", "--out", "/dev/full"],
}
# the cases that need a device some platforms lack
RUNNABLE = sorted(name for name, argv in CASES.items() if "/dev/full" not in argv or os.path.exists("/dev/full"))

# name: (exit code, sha256 of stdout, sha256 of the CSV or None)
GOLDEN = {
    "algebra_n2": (0, "a3c1d9e0e42324f05d154ab838c9eb2e331509ae109d022d3339c063da45698f", None),
    "algebra_n3": (0, "98577703707f03ada46153930bed2b317d03af09755508b733b1cf971c51b67f", None),
    "algebra_n4": (0, "f538d147193080e9842a7605f2d25d7e4a16c8c759d25bc822c39890d44b8934", None),
    "algebra_n5": (0, "b3def20f07ebf64cb4147b218abd98993a7ab087eafe320528a611f361c686f6", None),
    "algebra_n7": (0, "0d6ed89086ab4029c89e32ac9c7a8d64c4df9e2db4cecd26b7c3d15b667aba41", None),
    "contact_n15": (0, "06a481b9921a6d061d66ad833fa2805cd0b3b6d32ae97a1de39d6d45973065e2", None),
    "contact_n3": (0, "cf52211240f55bfe1306b1bcb0d8a5ee3ef342cb8d56ca1e63fec82d60a619df", None),
    "contact_n5": (0, "9dfbe8cbfd9f2fbc6d483635f17186cdb92127c451998ec73062dd20fd3439e5", None),
    "contact_n7": (0, "0dccbdca01a5924b9568de8fd4b415231aae42e1904d6c2d902969344ad51c0f", None),
    "escape_boundary": (2, "4e1f739e1c2ab044d40e1819ed99ebc3d9327d7073d306eb928245f64dab0747", "4b7403939e96b1672494cdb043b0b270c89fced5f0885211c6aecc4e39c83e7f"),
    "escape_overflow": (2, "aff0fd95d1e6ef5ac6a24bcbae6859db5f741a8819045867513da3a168cce39b", "c67adb8e8647db4f674c2acd49b7ddb2e32fbf635540c31c3895e84422be0d1f"),
    "flow_D": (0, "d955783bd371254d03ddd8c382319f19c7753419d8d2e3a7e23f69c0ac615d96", "a0be35a5d46c89de857a551a68ded85ecb71d4ee562cfb49d6e44a687823b1ed"),
    "flow_D_origin": (0, "f64c9cc0778b42aeb7a36a8e83cee85667556fec3ee8f55d9b2d6b38e8cc0cae", "002c208f8adeffebfe8a9db322abd509dcdf8bfbd991c43affc74d80515659d3"),
    "flow_G": (0, "622dad5ac15a8a0495d81b4486ee3106179d3c61fdfc6830563e3eb3b9bafebb", "ca1fb9904f4b061650032a14f86331d54aa296f2d15d3c9154982fee7017718c"),
    "flow_G1": (0, "82a5b4df596a27ccd63607858b3427d0240301e5d4f7c7c5960a0ba896108fc9", "85abb8c246b1eb21079dc5ab656baa95fd3643a0d835aa8d6f835385f3827341"),
    "flow_G1_axis": (0, "af06faf0b959dbffd8b235419a087241847ad9ba2abca5b5d481186604d26c1b", "d13f4ff01549556c6e3f193e0aba01698dd195351663beec33bebdc82d9cbb53"),
    "flow_G2": (0, "07ad162d9fa8b6fa2aa1b9c788bdf7f106afe9366e3e1f7f605e0182c62e0201", "26b94527e6d02f811a3c279ffe5ba8a1b46714bf54e41455ab9179e362e4853d"),
    "flow_G2_long": (0, "e77fc99fa02595135268ea360b7c750b43aea532a09b75be55cf87372a72946a", "1992448bd9cab1c39736dcd7c7c9f00096ccb3f637e2b5095b0a955a41e99c13"),
    "flow_G_origin": (0, "affc973ecc3129402fae4efd5de21b26c85f7944f42467a292b04b1061f91e3d", "2fcc4d88460754e33c0f4a1f53fce2f0ed0282ba5585b31f76166640b1d160e3"),
    "flow_T1": (0, "08dbee142f9469cfd2dd24381727f94a1c8c845c4c43f2b5580334f6298661a0", "a9566ded2e028e678b1d5045bc8abee6f4f5f084066edd21cd256cd76260b260"),
    "io_error_out": (74, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_arity": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_bad_gen": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_below_boundary": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_contact_even": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_inf_dt": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_nan_point": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_step_cap": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage_trials_cap": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "verify_n3": (0, "e1d088de068941895c87d4f39646dc7779b0dc01ccf18c407b3055e2138d8a7f", None),
    "verify_n5": (0, "405075669fa1c1534ec8070aa65366219ce469e092cfb93aad49c4e863bb7203", None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir) -> tuple:
    paths = {}
    for key, data in PARAMS.items():
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    csv_path = workdir / f"{name}.csv"
    argv = [arg.format(csv=csv_path, **paths) for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    csv = _sha(csv_path.read_bytes()) if csv_path.exists() else None
    return code, _sha(out.getvalue().encode()), csv


if __name__ != "__main__":
    import pytest

    @pytest.mark.parametrize("name", RUNNABLE)
    def test_golden_output(name, tmp_path):
        assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import argparse
    import pathlib
    import platform
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description="Print the GOLDEN table, or check every case against it.")
    parser.add_argument("--check", action="store_true", help="compare every case with GOLDEN; exit 1 on a difference")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        results = {name: run_case(name, pathlib.Path(tmp)) for name in RUNNABLE}
    if args.check:
        differ = [name for name, result in results.items() if result != GOLDEN[name]]
        for name in differ:
            print(f"{name}: got {results[name]}, pinned {GOLDEN[name]}")
        print(f"Python {platform.python_version()}: {len(results) - len(differ)} of {len(results)} pins match")
        sys.exit(1 if differ else 0)
    print("GOLDEN = {")
    for name, (code, out, csv) in results.items():
        csv = f'"{csv}"' if csv else None
        print(f'    "{name}": ({code}, "{out}", {csv}),')
    print("}")
