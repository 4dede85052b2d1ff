"""Command-line interface: output formats, exit codes, determinism.

Most cases drive cli.main in-process (fast, still via real argv parsing); a
couple go through an actual subprocess to cover the module entry point.
"""

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from polybernoulli import cli, exact_arith
from polybernoulli.zeta import hurwitz_zeta

from mpmath import mp


def run_main(argv, capsys, env_precision=None, monkeypatch=None):
    if env_precision is not None:
        monkeypatch.setenv("POLYBERNOULLI_PRECISION", env_precision)
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv):
    return subprocess.run(
        [sys.executable, "-m", "polybernoulli.cli", *argv],
        capture_output=True,
        text=True,
    )


# ------------------------------------------------------------------- tables


def test_pb_neg_table_contains_known_entries(capsys):
    code, out, _ = run_main(
        ["table", "--kind", "pb-neg", "--n", "0:3", "--k", "0:3", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    cells = {(e["n"], e["k"]): e["value"] for e in data["entries"]}
    assert cells[(1, 1)] == "2"
    assert cells[(2, 2)] == "14"
    assert cells[(0, 0)] == "1"
    assert data["params"] == {"alpha": "1", "beta": "0"}


def test_gpb_poly_table_classical_first_rows(capsys):
    code, out, _ = run_main(
        ["table", "--kind", "gpb-poly", "--n", "0:1", "--k", "1",
         "--alpha", "1", "--beta", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    coeffs = {e["n"]: e["coeffs"] for e in data["entries"]}
    assert coeffs[0] == ["1"]
    assert coeffs[1] == ["1/2", "1"]


def test_table_csv_mirrors_json(capsys):
    args = ["table", "--kind", "pb-number", "--n", "0:3", "--k=-2:2"]
    _, json_out, _ = run_main(args + ["--format", "json"], capsys)
    _, csv_out, _ = run_main(args + ["--format", "csv"], capsys)
    data = json.loads(json_out)
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["n", "k", "value"]
    got = [(int(r[0]), int(r[1]), r[2]) for r in rows[1:]]
    want = [(e["n"], e["k"], e["value"]) for e in data["entries"]]
    assert got == want


def test_sym_poly_table_terms_cell(capsys):
    code, out, _ = run_main(
        ["table", "--kind", "sym-poly", "--n", "1", "--m", "1",
         "--alpha", "1", "--beta", "0", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "m", "terms"]
    # C_1^(-1)(x, y) at classical parameters: every term i:j:coeff parses
    cell = rows[1][2]
    for part in cell.split(";"):
        i, j, c = part.split(":")
        int(i), int(j)
        assert c


# The exact requests of the benchmark's tables workload that the Stirling
# weight triangle serves, each stdout taken from the double-Stirling and
# defining-sum routes it replaced.  The two tables (576 KB and 15 KB of JSON)
# are pinned by the SHA-256 of stdout.
LARGE = ["--alpha", "1000000/7", "--beta", "1/999999"]
TABLE_GOLDEN_SHA256 = {
    "table --kind pb-neg --n 0:64 --k 0:64":
        "fe2a6768b2526d11d23c52b2d6aefd172b18ff1e83412eaf710d7838c5f993a8",
    "table --kind sym-poly --n 0:3 --m 0:3 --alpha 1000000/7 --beta 1/999999":
        "9f8cb8d0da71a28e3b684953de4b1f7de50666ea799385909cf8af8b777cd536",
    "eval --kind gpb-poly --n 64 --k 3 --alpha 1/2 --beta 1/3 --x 1/2":
        "b0524be3d55a3c9419ca1303fe5716dad0f818b3b9cb477fbb34590c168a188c",
    "eval --kind gpb-poly --n 40 --k=-40 --alpha 1000000/7 --beta 1/999999 --x 5":
        "b5298dbcf4209f6ce1464db18189e34ab061c1d75ae8f589c112fda5a144a624",
    "eval --kind gpb-poly --n 24 --k 5 --alpha 1000000/7 --beta 1/999999 --x 3":
        "36af181b9c6ab057a3da51eac0337e3dc14029b29a0796dc86aa9cd3b062fab4",
    "table --kind gpb-poly --n 0:12 --k=-4:4 --alpha 1/2 --beta 1/3 --format csv":
        "c2d703e2059cf0e058b80262b30c793e68306dfacb420a09425a68581552c829",
    "eval --kind gpb-c-poly --n 24 --k=-7 --alpha 1000000/7 --beta 1/999999 --gamma 2/3 --x 1/3":
        "9c98a7e0c94a60235c62c8d957aef06d6d4663b75f421a41597a20267155e3df",
    "table --kind gpb-c-poly --n 0:8 --k=-3:3 --alpha 1/2 --beta 1/3 --gamma 2/3":
        "0b50e33f48d81e07d18dae8d36d9c4a7ca8f2a7bb8a538ac1c1e7965c0911abe",
    "table --kind gpb-poly --n 0:64 --k 62:64 --alpha 1000000/7 --beta 1/999999":
        "66c1593db92521e939ed3c54868c86721606c486131cc59a4d2592d78de7dfde",
    "table --kind sym-poly --n 0:6 --m 0:6 --alpha 1/2 --beta 1/3":
        "bda181f46c75b68037132395b12c8127ac9aada9c59a56f33f33e333ecc56b33",
    # alpha/L = -2/13: the symmetrized weight rows grow at a negative shift.
    "table --kind sym-poly --n 0:8 --m 0:8 --alpha 1/3 --beta=-5/2":
        "e2113fd08a38a90dfe2c9bd5896160a6145aee487167c6c84cc1b2066e4a033d",
    # Exact zeta at s = -n, as printed by the literal truncated series.
    "eval --kind zeta --k 2 --s=-64 --x 1/2 --alpha 1/2 --beta 1/3":
        "288e2ebe8d5f79236865b3ac7e7718bb5106fa1f0fc8a5d66c6c485588e8b29d",
    "eval --kind zeta --k=-3 --s=-20 --x 7 --alpha 1000000/7 --beta 1/999999":
        "901f458e4aca4974e267798820ae44cf415a3f056005da1ac4ea64f14ae2b602",
    "eval --kind zeta --k 64 --s=-64 --x 1/2 --alpha 1000000/7 --beta 1/999999":
        "aadf45a9e1eb1d3c382806279460731b7f64f544a4f7e635e5888988d695bbc0",
}


@pytest.mark.parametrize("line", sorted(TABLE_GOLDEN_SHA256))
def test_exact_table_golden_sha256(line, capsys):
    code, out, _ = run_main(line.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_GOLDEN_SHA256[line]


# The series and reduced requests of the benchmark's zeta workload, each
# stdout taken while the series engine still carried alpha and beta.  Both
# routes now sum one series in y = (x+beta)/L and differ only in where the
# stop falls, so these pin the value digits, error bounds and term counts.
SERIES_GOLDEN_SHA256 = {
    "--k 2 --s 3/2 --x 30 --alpha 1 --beta 1/2 --precision 64 --route series":
        "a665e760b20f0e190ce5c30c5363e998afee6cbc62cdec91929f558ac0834426",
    "--k 2 --s 3/2 --x 30 --alpha 1 --beta 1/2 --precision 128 --route series":
        "77c44c4cd56b275aad71d782250fefb6dc75aba895b18b16bfeddd3277d13068",
    "--k 2 --s 3/2 --x 60 --alpha 1 --beta 1/2 --precision 192 --route series":
        "19d4a190d7b671da0e509d811302052ea17c22725e340d628d748e7dd89db0b2",
    "--k 1 --s 5/2 --x 120 --alpha 1/3 --beta 2/3 --precision 256 --route series":
        "76d7349a29648823b4d05bb2f7465cfed746cb95cae6f184547bf311faa1b847",
    "--k 3 --s 1/2 --x 45 --alpha 1/4 --beta 3/4 --precision 64 --route series":
        "2ebeaca4b4b006b74bb0d535ff45dcfed7013381a4b1e738d4dc449cefa35979",
    "--k 2 --s 2 --x 200 --alpha 1 --beta 1/3 --precision 256 --route series":
        "4877afde8dc543fe4dd17c64bc80a0a3e3d85438e27635f852afa6575e8fda68",
    "--k 1 --s 1/2 --x 40 --alpha 1 --beta 1 --precision 64 --route reduced":
        "82b6d8443162058e83f338ba48e5a44883f13f777cf458a8df9725bb88f51abb",
    "--k 3 --s 2 --x 50 --alpha 1/2 --beta 1/4 --precision 128 --route reduced":
        "611aaf3cacfbfcb84db9e3b978ef4bbace9e5068b5e47b1b56ae8dacc69b0a2a",
    "--k 2 --s 5/2 --x 90 --alpha 1/2 --beta 1/2 --precision 192 --route reduced":
        "1637483dc432c40b971bcded03dd961f7a777716013549dd73f68fcdc230047f",
    "--k 2 --s 7/2 --x 100 --alpha 1 --beta 1/2 --precision 256 --route reduced":
        "9f7cd9bee851dff539efbe30c85dc5dc54acf321f19e9fa9fe7a2cd316d76c8b",
}


@pytest.mark.parametrize("args", sorted(SERIES_GOLDEN_SHA256))
def test_series_golden_sha256(args, capsys):
    code, out, _ = run_main(["eval", "--kind", "zeta", *args.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_GOLDEN_SHA256[args]


SYM_EVAL_GOLDEN = """\
{
  "kind": "sym-poly",
  "n": 12,
  "x": "1/2",
  "m": 10,
  "y": "-1/3",
  "params": {
    "alpha": "1000000/7",
    "beta": "1/999999"
  },
  "mode": "exact",
  "value": "1864577409536093331286910188985576770035185133088517196698497169087122042608926926770475795703988087692913317749349470019504483128281271277036564711317916987851453195249317091068496511600772935327592425414227928725999223508627539727620762179128784303462657932902326649/1047595232283430314505322284477832960535228765548354850391488508048934647504306242013925929933125683627632843733706212183336426222334885925023354805820266047056158871579739881714044282659428580266935013000355960639968462081128432786317897129984004096"
}
"""


def test_eval_sym_poly_golden_stdout(capsys):
    code, out, _ = run_main(
        ["eval", "--kind", "sym-poly", "--n", "12", "--m", "10", *LARGE, "--x", "1/2", "--y=-1/3"],
        capsys,
    )
    assert code == 0
    assert out == SYM_EVAL_GOLDEN


def test_exact_requests_leave_the_stirling_oracle_alone(capsys, monkeypatch):
    # Production reads core's weight triangle; the alternating-sum Stirling
    # table is an oracle for verify and the tests only.
    def oracle_only(*args):
        raise AssertionError("a table or eval request reached stirling2")

    monkeypatch.setattr(exact_arith, "stirling2", oracle_only)
    monkeypatch.setattr(exact_arith.CombCache, "stirling2", oracle_only)
    for argv in (
        ["table", "--kind", "pb-neg", "--n", "0:12", "--k", "0:12"],
        ["table", "--kind", "sym-poly", "--n", "0:4", "--m", "0:3", "--alpha", "1/2", "--beta", "1/3"],
        ["eval", "--kind", "sym-poly", "--n", "9", "--m", "7", *LARGE, "--x", "1/2", "--y=-1/3"],
    ):
        code, out, _ = run_main(argv, capsys)
        assert code == 0 and out, argv


# --------------------------------------------------------------------- eval


def test_eval_gpb_poly_exact(capsys):
    code, out, _ = run_main(
        ["eval", "--kind", "gpb-poly", "--n", "1", "--k", "1",
         "--alpha", "1", "--beta", "0", "--x", "0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "exact"
    assert data["value"] == "1/2"


def test_eval_zeta_negative_s_is_exact(capsys):
    # s = -2 truncates: value is B_2^(1)(-1) = 1 - 1 + 1/6
    code, out, _ = run_main(
        ["eval", "--kind", "zeta", "--k", "1", "--s=-2", "--x", "1",
         "--alpha", "1", "--beta", "0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "exact"
    assert data["value"] == "1/6"


def test_eval_zeta_numeric_series(capsys):
    code, out, _ = run_main(
        ["eval", "--kind", "zeta", "--k", "2", "--s", "3/2", "--x", "30",
         "--alpha", "1", "--beta", "1/2", "--precision", "80"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "numeric"
    assert data["route"] == "series"
    assert data["terms"] > 0
    assert float(data["error_bound"]) < 1e-20


def test_eval_zeta_quadrature_route_text(capsys):
    code, out, _ = run_main(
        ["eval", "--kind", "zeta", "--k", "1", "--s", "3", "--x", "2",
         "--alpha", "1/2", "--beta", "1/2", "--precision", "64",
         "--route", "quadrature", "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out.startswith("value=")
    assert "route=quadrature" in out
    # cross-check the printed value against the Hurwitz chain: 3 zeta(4, 5/2)
    printed = out.split()[0].split("=", 1)[1]
    hz, _ = hurwitz_zeta(4, "5/2", 96)
    with mp.workprec(120):
        assert abs(mp.mpf(printed) - 3 * hz) < mp.mpf("1e-15")


# The full stdout of numeric requests, every printed digit pinned, so a
# rewrite of the numeric kernels that moves a digit, the error bound or the
# term count fails here: the 128-bit series request and all five quadrature
# requests of the benchmark's zeta workload.
ZETA_GOLDEN = {
    "--k 2 --s 3/2 --x 30 --alpha 1 --beta 1/2 --precision 128 --route series": """\
{
  "kind": "zeta",
  "k": 2,
  "s": "3/2",
  "x": "30",
  "params": {
    "alpha": "1",
    "beta": "1/2"
  },
  "mode": "numeric",
  "route": "series",
  "precision": 128,
  "value": "0.006045449041170118873429468996095112877281",
  "error_bound": "3.88e-40",
  "terms": 410
}
""",
    "--k 3 --s 1/2 --x 40 --alpha 1/2 --beta 1/2 --precision 128 --route quadrature": """\
{
  "kind": "zeta",
  "k": 3,
  "s": "1/2",
  "x": "40",
  "params": {
    "alpha": "1/2",
    "beta": "1/2"
  },
  "mode": "numeric",
  "route": "quadrature",
  "precision": 128,
  "value": "0.1573755005985473221331365535421241204867",
  "error_bound": "4.29e-51",
  "terms": 0
}
""",
    "--k 2 --s 3/2 --x 30 --alpha 1 --beta 1/2 --precision 64 --route quadrature": """\
{
  "kind": "zeta",
  "k": 2,
  "s": "3/2",
  "x": "30",
  "params": {
    "alpha": "1",
    "beta": "1/2"
  },
  "mode": "numeric",
  "route": "quadrature",
  "precision": 64,
  "value": "0.00604544904117011887343",
  "error_bound": "6.1e-31",
  "terms": 0
}
""",
    "--k 1 --s 3 --x 2 --alpha 1/2 --beta 1/2 --precision 192 --route quadrature": """\
{
  "kind": "zeta",
  "k": 1,
  "s": "3",
  "x": "2",
  "params": {
    "alpha": "1/2",
    "beta": "1/2"
  },
  "mode": "numeric",
  "route": "quadrature",
  "precision": 192,
  "value": "0.11195292440862602562757375175996303227120024375011825314134",
  "error_bound": "1.58e-74",
  "terms": 0
}
""",
    "--k 2 --s 3/2 --x 30 --alpha 1 --beta 1/2 --precision 256 --route quadrature": """\
{
  "kind": "zeta",
  "k": 2,
  "s": "3/2",
  "x": "30",
  "params": {
    "alpha": "1",
    "beta": "1/2"
  },
  "mode": "numeric",
  "route": "quadrature",
  "precision": 256,
  "value": "0.006045449041170118873429468996095112877469454565437976062250622145177957355125283",
  "error_bound": "3.03e-89",
  "terms": 0
}
""",
    "--k 3 --s 5/2 --x 1/10 --alpha 1 --beta 1/2 --precision 64 --route quadrature": """\
{
  "kind": "zeta",
  "k": 3,
  "s": "5/2",
  "x": "1/10",
  "params": {
    "alpha": "1",
    "beta": "1/2"
  },
  "mode": "numeric",
  "route": "quadrature",
  "precision": 64,
  "value": "4.26082838737469113889",
  "error_bound": "2.05e-34",
  "terms": 0
}
""",
}


@pytest.mark.parametrize("args", sorted(ZETA_GOLDEN))
def test_eval_zeta_golden_stdout(args, capsys):
    code, out, _ = run_main(["eval", "--kind", "zeta", *args.split()], capsys)
    assert code == 0
    assert out == ZETA_GOLDEN[args]


def test_eval_honors_precision_env(capsys, monkeypatch):
    code, out, _ = run_main(
        ["eval", "--kind", "zeta", "--k", "2", "--s", "2", "--x", "40",
         "--alpha", "1", "--beta", "1"],
        capsys,
        env_precision="96",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["precision"] == 96


def test_eval_rejects_bad_env(capsys, monkeypatch):
    code, _, err = run_main(
        ["eval", "--kind", "zeta", "--k", "2", "--s", "2", "--x", "40",
         "--alpha", "1", "--beta", "1"],
        capsys,
        env_precision="not-a-number",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "error:" in err


# --------------------------------------------------------------- exit codes


def test_exit_code_empty_range(capsys):
    code, _, err = run_main(
        ["table", "--kind", "pb-number", "--n", "5:1", "--k", "1"], capsys
    )
    assert code == 3
    assert "empty" in err


def test_exit_code_oversize(capsys):
    code, _, _ = run_main(
        ["table", "--kind", "pb-number", "--n", "0:99", "--k", "1"], capsys
    )
    assert code == 3


def test_exit_code_table_over_value_cap(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a refused table must not compute anything")

    monkeypatch.setattr(cli, "gpb_explicit", no_work)
    monkeypatch.setattr(cli, "sym_closed", no_work)
    code, out, err = run_main(
        ["table", "--kind", "gpb-poly", "--n", "0:64", "--k=-64:64"], capsys
    )
    assert (code, out) == (3, "")
    assert "276705 output values" in err
    code, _, _ = run_main(["table", "--kind", "sym-poly", "--n", "0:20", "--m", "0:20"], capsys)
    assert code == 3
    # The full number grid is 8,385 values and stays within the cap.
    code, out, _ = run_main(
        ["table", "--kind", "pb-number", "--n", "0:64", "--k=-64:64", "--format", "csv"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 65 * 129


def test_exit_code_bad_request(capsys):
    code, _, _ = run_main(["verify", "--suite", "no-such-suite"], capsys)
    assert code == 2
    code, _, _ = run_main(
        ["eval", "--kind", "zeta", "--k", "0", "--s", "2", "--x", "10"], capsys
    )
    assert code == 2


def test_exit_code_non_convergence(capsys):
    code, _, err = run_main(
        ["eval", "--kind", "zeta", "--k", "1", "--s", "2", "--x", "50",
         "--alpha", "1", "--beta", "1", "--max-terms", "3"],
        capsys,
    )
    assert code == 4
    assert "error:" in err


def test_argparse_failure_maps_to_bad_request(capsys):
    code, _, _ = run_main(["table", "--kind", "pb-number", "--n", "zero"], capsys)
    assert code == 2


# ------------------------------------------------------------------- verify


def test_verify_single_suite_human(capsys):
    code, out, err = run_main(
        ["verify", "--suite", "exact-arith", "--seed", "5"], capsys
    )
    assert code == 0
    assert "suite exact-arith" in out
    assert "all checks passed (seed 5)" in out
    assert "wall time" in err  # timing must stay off stdout


def test_verify_json_deterministic(capsys):
    a = cli.render_to_string(["verify", "--suite", "lonesum", "--seed", "9", "--format", "json"])
    b = cli.render_to_string(["verify", "--suite", "lonesum", "--seed", "9", "--format", "json"])
    assert a == b
    assert json.loads(a)["ok"] is True


# ------------------------------------------------------------ entry points


def test_subprocess_entry_point():
    proc = run_subprocess(
        ["table", "--kind", "pb-neg", "--n", "1:2", "--k", "1:2", "--format", "csv"]
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,k,value"
    assert "1,1,2" in proc.stdout
    assert "2,2,14" in proc.stdout


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_main(
        ["table", "--kind", "pb-number", "--n", "0:2", "--k", "1",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""  # the report went to the file instead
    assert json.loads(target.read_text())["kind"] == "pb-number"
