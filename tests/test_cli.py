import argparse
import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uplane import cli, family_to_dict, isotrivial_family, sample_family
from uplane.cli import main


@pytest.fixture
def family_file(tmp_path):
    def write(nf, name=None):
        fam = sample_family(nf)
        path = tmp_path / (name or f"nf{nf}.json")
        path.write_text(json.dumps(family_to_dict(fam)))
        return str(path)

    return write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_periods_command(capsys):
    code, out, _ = _run(capsys, ["periods", "--g2", "4,0", "--g3", "0,0"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["tau"][0]) < 1e-10 and abs(doc["tau"][1] - 1.0) < 1e-10
    assert abs(doc["omega"][0] - 1.3110287771460599) < 1e-12
    assert doc["eta_identity_rel_err"] < 1e-9


def test_periods_singular_curve_exit_1(capsys):
    code, out, err = _run(capsys, ["periods", "--g2", "3,0", "--g3", "1,0"])
    assert code == 1
    assert out == ""
    assert "discriminant" in err


def test_determinants_command(capsys):
    code, out, _ = _run(
        capsys, ["determinants", "--tau", "0,1", "--two-omega", "1,0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["det_prime"] - 0.00882) < 5e-6
    assert len(doc["det_twisted"]) == 3
    assert abs(doc["det_twisted"][0] - 2.0) < 1e-10
    assert abs(doc["det_dirichlet"] ** 2 - doc["det_prime"]) < 1e-14


def test_zeta_oracle_command(capsys):
    code, out, _ = _run(
        capsys,
        ["zeta-oracle", "--tau", "0.3,1.7", "--nu1", "0", "--nu2", "1", "--two-omega", "1,0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rel_err_vs_closed"] < 1e-8


def test_classify_command(capsys, family_file):
    code, out, _ = _run(capsys, ["classify", "--family", family_file(0)])
    assert code == 0
    doc = json.loads(out)
    labels = sorted(f["kodaira"] for f in doc["fibers"])
    assert labels == ["I1", "I1", "I4*"]
    assert doc["sign_z"] == 0
    assert doc["total_euler"] == 12


def test_signature_command(capsys, family_file):
    code, out, _ = _run(capsys, ["signature", "--family", family_file(3)])
    assert code == 0
    doc = json.loads(out)
    assert doc["signature"] == -3
    assert doc["sign_zbar"] == -8
    assert doc["curvature_total"] == {"num": 2, "den": 1}


def test_holonomy_command(capsys, family_file):
    code, out, _ = _run(
        capsys,
        [
            "holonomy", "--family", family_file(0), "--center", "1,0",
            "--radius", "0.5", "--operator", "dbar", "--orientation", "cw",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["winding"] == -1
    assert doc["log_monodromy"] == {"num": -1, "den": 3}


#: the keys of every JSON command, in the order they are written: the top level, and
#: the nested objects of a holonomy loop and of a classified fiber
_JSON_KEYS = {
    "periods": ["omega", "omega_prime", "tau", "q", "eta_identity_rel_err", "j_curve", "j_tau"],
    "determinants": ["tau", "q", "det_prime", "det_twisted", "det_dirichlet",
                     "det_dirichlet_flat", "quillen_norm"],
    "zeta-oracle": ["tau", "nu", "log_det", "det", "closed_form", "closed_form_kind",
                    "rel_err_vs_closed"],
    "classify": ["family", "nf", "fibers", "total_euler", "sign_zbar", "sign_z"],
    "holonomy": ["family", "operator", "loop", "winding", "log_monodromy", "phase",
                 "phase_exact"],
    "signature": ["family", "nf", "signature", "sign_zbar", "sign_z_surface", "curvature_total"],
    "loop": ["center", "radius", "samples", "orientation", "chart"],
    "fiber": ["location", "kodaira", "ord_g2", "ord_g3", "ord_delta", "euler",
              "is_surface_singularity"],
}


def test_json_key_order_is_pinned(capsys, family_file):
    # nested objects are written field by field, so their key order is the order of the
    # dataclass fields: a reordered field would reorder the output
    path = family_file(0)
    argvs = {
        "periods": ["--g2", "4,0", "--g3", "0,1"],
        "determinants": ["--tau", "0.3,1.7", "--two-omega", "1,0"],
        "zeta-oracle": ["--tau", "0.3,1.7", "--nu1", "0", "--nu2", "1", "--two-omega", "1,0"],
        "classify": ["--family", path],
        "holonomy": ["--family", path, "--center", "1,0", "--radius", "0.5", "--operator",
                     "dbar", "--orientation", "cw"],
        "signature": ["--family", path],
    }
    for command, argv in argvs.items():
        code, out, _ = _run(capsys, [command] + argv)
        doc = json.loads(out)
        assert code == 0 and list(doc) == _JSON_KEYS[command]
        if command == "holonomy":
            assert list(doc["loop"]) == _JSON_KEYS["loop"]
            assert doc["operator"] == "dbar" and doc["loop"]["orientation"] == "cw"
        if command == "classify":
            assert [list(f) for f in doc["fibers"]] == [_JSON_KEYS["fiber"]] * 3
            assert doc["fibers"][-1]["location"] == "infinity"


def _holonomy_argv(path, center="0.5,0", radius="0.52", samples=None):
    argv = ["holonomy", "--family", path, "--center", center, "--radius", radius,
            "--operator", "signature", "--orientation", "cw"]
    return argv + (["--samples", samples] if samples else [])


def test_holonomy_samples_is_a_floor(capsys, family_file):
    # 64 samples cannot resolve a loop 0.02 from the node at u = 1; the count
    # printed is the one integrated, and a request at that count is the same
    path = family_file(0)
    code, out, _ = _run(capsys, _holonomy_argv(path, samples="64"))
    used = json.loads(out)["loop"]["samples"]
    assert code == 0 and used > 64
    assert _run(capsys, _holonomy_argv(path, samples=str(used)))[1] == out
    code, out, _ = _run(capsys, _holonomy_argv(path, samples="4096"))
    assert code == 0 and json.loads(out)["loop"]["samples"] == 4096


def test_unresolvable_holonomy_loop_exit_1(capsys, family_file):
    code, out, err = _run(capsys, _holonomy_argv(family_file(0), center="0,0", radius="1.00001"))
    assert code == 1 and out == ""
    assert "samples" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [
    ("--radius", "nan"),
    ("--radius", "inf"),
    ("--center", "nan,0"),
    ("--center", "0,inf"),
    ("--samples", str((1 << 20) + 1)),
])
def test_holonomy_non_loop_exit_2(capsys, family_file, flag, value):
    argv = _holonomy_argv(family_file(0), center="1,0", radius="0.5", samples="1024")
    argv[argv.index(flag) + 1] = value
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "loop" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf", "1e155", "1e300"])
def test_anomaly_bad_step_exit_2(capsys, family_file, step):
    # a step whose square overflows (the Laplacian divides by it) once ended in an
    # OverflowError traceback at exit 1
    code, out, err = _run(
        capsys, ["anomaly", "--family", family_file(0), "--at", "0.3,0.9", "--step", step]
    )
    assert code == 2 and out == ""
    assert "step" in err and _one_error_line(err)


@pytest.mark.parametrize("at, step", [("0.3,0.7", "1e-17"), ("0.3,0.7", "1e-100"),
                                      ("0,0.5", "1e-170"), ("0.3,0.7", "1e-200"),
                                      ("0.3,0", "1e-17"), ("0,0", "1e-170")])
def test_anomaly_collapsed_step_exit_2(capsys, family_file, at, step):
    # a stencil whose points round together is a caller error, not a ratio 0 at exit 0
    # or a ZeroDivisionError (which would propagate out of main here)
    code, out, err = _run(
        capsys, ["anomaly", "--family", family_file(0), "--at", at, "--step", step]
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: finite-difference step {float(step)} collapses the stencil")


def test_anomaly_command(capsys, family_file):
    code, out, _ = _run(
        capsys, ["anomaly", "--family", family_file(0), "--at", "0.3,0.9"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u_re,u_im,lhs,rhs,ratio"
    vals = [float(x) for x in lines[1].split(",")]
    assert abs(vals[4] - 2.0) < 1e-3


def test_negative_coordinate_values_accepted(capsys, family_file):
    # option values with leading minus signs must not be read as flags
    code, out, _ = _run(capsys, ["periods", "--g2", "-1,0", "--g3", "0,1"])
    assert code == 0
    assert json.loads(out)["tau"][1] > 0
    code, out, _ = _run(
        capsys,
        ["scan", "--family", family_file(0), "--grid", "-3,-2,-3,-2,2,2", "--margin", "0.1"],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 4


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out_path = tmp_path / "out.json"
    code = main(["classify", "--family", str(bad), "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert not out_path.exists()  # no output file on error
    assert "JSON" in err or "json" in err


def test_missing_field_exit_2_names_field(tmp_path, capsys):
    doc = json.dumps({"name": "x", "nf": 0, "g2": [[3.0, 0.0]]})
    path = tmp_path / "fam.json"
    path.write_text(doc)
    code = main(["classify", "--family", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "g3" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["g2", "g3", "masses"])
def test_non_finite_family_coefficient_exit_2(tmp_path, capsys, field, value):
    # json.load parses NaN and Infinity; they must be refused by name, not
    # surface later as a wrong discriminant degree
    doc = family_to_dict(sample_family(2))
    doc["masses"] = [[0.5, 0.0], [-0.5, 0.0]]
    doc[field][-1][0] = value
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["classify", "--family", str(path)])
    assert code == 2
    assert out == ""
    assert f"field '{field}' must contain finite numbers" in err
    assert "deg(discriminant)" not in err


@pytest.mark.parametrize("old, new, message", [
    ("[-1.0, 0.0]", "[1" + "0" * 400 + ", 0.0]", "must contain finite numbers; its pair 0 "),
    ('"g2": [[-1.0, 0.0], [0.0, 0.0]', '"g2": [[-1.0, false], [false, 0.0]',
     "must contain [re, im] number pairs"),
    ("[1.3333333333333333, 0.0]", "[1.3333333333333333, -1" + "0" * 4000 + "]",
     "must contain finite numbers; its pair 2 "),
], ids=["huge", "boolean", "huge-long"])
def test_family_coefficient_beyond_double_or_boolean_exit_2(family_file, capsys, old, new,
                                                            message):
    # an over-range integer ended in an OverflowError traceback at exit 1, and JSON
    # booleans were read as 1.0 and 0.0, so the copy of nf0 printed a signature.  The
    # message names the offending pair by its index: it once echoed the pair, so a
    # 401-digit integer printed an error line of 460 characters
    path = Path(family_file(0))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    for argv in (["classify", "--family", str(path)], ["signature", "--family", str(path)]):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: field 'g2' {message}")
        assert _one_error_line(err) and len(err) < 120


#: families that pass construction but whose nodes double precision cannot place: a node
#: at -3.8e77, where the grouping's rounding scale overflows, and one at -1.5e310, where
#: np.roots' companion matrix overflows.  Each once ended in an OverflowError traceback
#: or in numpy RuntimeWarnings
_NODES_BEYOND_DOUBLE = {
    "far": {"name": "far", "nf": 4, "g2": [[0.0, 0.0]],
            "g3": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.6e-78, 0.0]]},
    "subnormal": {"name": "subnormal", "nf": 2, "g2": [[0.0, 0.0], [1.0, 0.0], [2.2e-311, 0.0]],
                  "g3": [[0.0, 0.0]]},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["scaled", "modulus", "far", "subnormal"])
def test_overflowing_family_discriminant_exit_2(family_file, capsys, case):
    # nf0 with the curve scaled by s = 1e100 (g2 by s^2, g3 by s^3): g2^3 overflows, and
    # the NaN of inf - inf once survived the dust trim and read as a degree mismatch.  A
    # coefficient whose modulus passes the double range ended in an OverflowError traceback.
    # The families of _NODES_BEYOND_DOUBLE pass construction, and their nodes overflow
    path = Path(family_file(0))
    doc = _NODES_BEYOND_DOUBLE.get(case) or json.loads(path.read_text())
    if case == "scaled":
        for key, s in (("g2", 1e200), ("g3", 1e300)):
            doc[key] = [[re * s, im * s] for re, im in doc[key]]
    elif case == "modulus":
        doc["g2"][0] = [1.5e308, 1.5e308]
    path.write_text(json.dumps(doc))
    message = ("error: the family's nodes are beyond double precision"
               if case in _NODES_BEYOND_DOUBLE else "error: the family's discriminant overflows")
    for argv in (["classify", "--family", str(path)], ["signature", "--family", str(path)]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(message)
        assert _one_error_line(err) and "deg(discriminant)" not in err


def test_invalid_tau_exit_2(capsys):
    code, out, err = _run(capsys, ["determinants", "--tau", "0,-1", "--two-omega", "1,0"])
    assert code == 2
    assert out == ""
    assert "Im tau" in err


@pytest.mark.parametrize("tau", [
    "0,300",  # eta^24 underflowed: the det' cross-check failed against 0.0
    "0,1e4",  # eta underflowed to 0: ZeroDivisionError traceback
    "0.3,1e-8",  # reduces to Im tau = 1e6: ZeroDivisionError traceback
])
def test_tau_beyond_the_supported_range_is_refused(capsys, tau):
    code, out, err = _run(capsys, ["determinants", "--tau", tau, "--two-omega", "1,0"])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "Im tau <= 100" in err


def test_tau_at_the_edge_of_the_supported_range(capsys):
    code, out, _ = _run(capsys, ["determinants", "--tau", "0,100", "--two-omega", "1,0"])
    assert code == 0
    doc = json.loads(out)
    assert all(v > 0 for v in doc["det_twisted"] + [doc["det_prime"], doc["quillen_norm"]])


_ZETA_ODD = ["zeta-oracle", "--nu1", "1", "--nu2", "1"]


@pytest.mark.parametrize("command", [["determinants"], _ZETA_ODD])
@pytest.mark.parametrize("two_omega", [
    "1e30,0",  # (2 omega)^12 overflowed: OverflowError traceback
    "1e-30,0",  # (2 omega)^12 underflowed to 0: ZeroDivisionError traceback
    "1e200,0",  # |omega|^2 overflowed (determinants), math domain error (zeta-oracle)
])
def test_two_omega_beyond_the_supported_range_is_refused(capsys, command, two_omega):
    code, out, err = _run(capsys, command + ["--tau", "0,1", "--two-omega", two_omega])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "1e-20 <= |2 omega| <= 1e3" in err


@pytest.mark.parametrize("command", [["determinants"], _ZETA_ODD])
def test_two_omega_beyond_the_range_on_the_reduced_basis_is_refused(capsys, command):
    # tau reduces to Im tau ~ 1 with c tau + d = tau, so 2 omega becomes ~1e-150 there and
    # (2 omega)^12 underflows on any basis; determinants used to exit 1 with a NaN cross-check
    code, out, err = _run(capsys, command + ["--tau", "1e-150,1e-300", "--two-omega", "1,0"])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "on the reduced basis" in err
    assert "1e-20 <= |2 omega| <= 1e3" in err


@pytest.mark.parametrize("nu", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_zeta_oracle_off_the_fundamental_domain_prints_the_given_tau_and_nu(capsys, nu):
    # evaluated on the reduced basis with the structure moved; printed as asked
    argv = ["zeta-oracle", "--tau", "2.0009,0.0205", "--nu1", str(nu[0]), "--nu2", str(nu[1]),
            "--two-omega", "0.6,0.8"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == [2.0009, 0.0205] and doc["nu"] == list(nu)
    assert doc["rel_err_vs_closed"] < 1e-10


def test_scan_and_anomaly_take_no_eta_multiplier(capsys, family_file, monkeypatch):
    # every period basis they evaluate is already in F, where eta is its q-product
    from uplane import modular

    calls = []
    real = modular._eta_multiplier
    monkeypatch.setattr(modular, "_eta_multiplier", lambda *m: calls.append(m) or real(*m))
    for nf in range(5):
        fam = family_file(nf)
        assert _run(capsys, ["scan", "--family", fam, "--grid", "-2,2,-2,2,9,9"])[0] == 0
        for at in ("0.3,0.9", "-1.7,0.6", "2.1,-1.3"):
            assert _run(capsys, ["anomaly", "--family", fam, "--at", at])[0] == 0
    assert calls == []


@pytest.mark.parametrize("command", [["determinants"], _ZETA_ODD])
@pytest.mark.parametrize("tau", ["0,100", "0.5,0.8660254037844386"])
@pytest.mark.parametrize("two_omega", ["600,800", "6e-21,8e-21"])
def test_two_omega_at_the_edges_of_the_supported_range(capsys, command, tau, two_omega):
    code, out, _ = _run(capsys, command + ["--tau", tau, "--two-omega", two_omega])
    assert code == 0
    doc = json.loads(out)
    if command == _ZETA_ODD:
        values = [doc["det"], doc["closed_form"]]
    else:
        values = doc["det_twisted"] + [doc["det_prime"], doc["quillen_norm"]]
    assert all(0 < v < math.inf for v in values)


def test_missing_file_exit_2(capsys):
    code = main(["classify", "--family", "/nonexistent/family.json"])
    assert code == 2


def test_scan_deterministic_and_row_count(tmp_path, capsys, family_file):
    fam = family_file(0)
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    argv = ["scan", "--family", fam, "--grid", "2,3,2,3,3,3", "--margin", "0.1"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2  # byte-identical rerun
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "u_re,u_im,im_tau,f1,quillen_norm,scalar_curvature"
    assert len(lines) == 1 + 9  # full 3x3 grid, no node within margin


def test_scan_skips_margin_rows(tmp_path, capsys, family_file):
    fam = family_file(0)  # nodes at +-1
    code = main(["scan", "--family", fam, "--grid", "0.5,1.5,-0.5,0.5,3,3", "--margin", "0.2"])
    out = capsys.readouterr()
    assert code == 0
    rows = out.out.strip().split("\n")[1:]
    assert len(rows) < 9  # some rows near u = 1 skipped
    assert "skipping" in out.err


def test_scan_skips_a_point_on_a_node(capsys, family_file):
    # at margin 0 the nodes u = +-1 are grid points: each is skipped with the solve's
    # reason, and the scan goes on
    code, out, err = _run(
        capsys, ["scan", "--family", family_file(0), "--grid", "-1,1,0,0,3,1", "--margin", "0"]
    )
    assert code == 0
    assert err == (
        "scan: skipping u=(-1+0j) (discriminant vanishes for g2=(0.33333333333333326+0j),"
        " g3=(0.037037037037037035+0j) at u=(-1+0j))\n"
        "scan: skipping u=(1+0j) (discriminant vanishes for g2=(0.33333333333333326+0j),"
        " g3=(-0.037037037037037035+0j) at u=(1+0j))\n"
    )
    assert out == (
        "u_re,u_im,im_tau,f1,quillen_norm,scalar_curvature\n"
        "0.00000000000000000e+00,0.00000000000000000e+00,1.00000000000000000e+00,"
        "1.05468828099567213e+00,1.00000000000000000e+00,7.59252853140870293e-03\n"
    )


def test_quillen_norm_drops_toward_node_in_scan(capsys, family_file):
    fam = family_file(0)
    code = main(["scan", "--family", fam, "--grid", "1.05,1.5,0,0,6,1", "--margin", "0.01"])
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    norms = [float(r[4]) for r in rows]
    assert norms[0] < norms[-1]  # smaller closer to the node at u = 1


def test_isotrivial_family_rejected_by_scan_curvature(tmp_path, capsys):
    # isotrivial family still scans fine (S = 0 rows)
    fam = isotrivial_family()
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(family_to_dict(fam)))
    code = main(["scan", "--family", str(path), "--grid", "1,2,1,2,2,2", "--margin", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 4


def _one_error_line(err):
    lines = err.strip().split("\n")
    return len(lines) == 1 and lines[0].startswith("error: ")


_COMPLEX_FLAG_ARGV = {
    "--g2": ["periods", "--g2", "4,0", "--g3", "0,0"],
    "--g3": ["periods", "--g2", "4,0", "--g3", "0,0"],
    "--tau": ["determinants", "--tau", "0,1", "--two-omega", "1,0"],
    "--two-omega": ["determinants", "--tau", "0,1", "--two-omega", "1,0"],
    "--at": ["anomaly", "--family", None, "--at", "0.3,0.9"],
    "--center": ["holonomy", "--family", None, "--center", "1,0", "--radius", "0.5",
                 "--operator", "dbar", "--orientation", "cw"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", sorted(_COMPLEX_FLAG_ARGV))
@pytest.mark.parametrize("value", ["nan,0", "0,inf", "-inf,1"])
def test_non_finite_complex_flag_exit_2(capsys, family_file, flag, value):
    argv = [family_file(0) if a is None else a for a in _COMPLEX_FLAG_ARGV[flag]]
    assert _run(capsys, argv)[0] == 0  # the argv is valid before the value is swapped in
    argv[argv.index(flag) + 1] = value
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert _one_error_line(err) and "finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [
    ("--margin", "nan"),
    ("--margin", "inf"),
    ("--margin", "-1"),
    ("--grid", "nan,3,2,3,3,3"),
    ("--grid", "2,3,2,inf,3,3"),
])
def test_scan_bad_margin_or_grid_exit_2(capsys, family_file, flag, value):
    argv = ["scan", "--family", family_file(0), "--grid", "2,3,2,3,3,3", "--margin", "0.1"]
    argv[argv.index(flag) + 1] = value
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert _one_error_line(err) and flag in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, expected", [
    (["anomaly", "--family", None, "--at", "1e200,0"], 2),
    (["anomaly", "--family", None, "--at", "1e100,0"], 2),
    (["scan", "--family", None, "--grid", "1e200,1e200,0,0,1,1"], 2),
    (["holonomy", "--family", None, "--center", "0,0", "--radius", "1e200", "--operator", "dbar",
      "--orientation", "cw"], 1),
    # ((1.3+0.2i) s^2, (0.4-0.7i) s^3) at s = 1e-51 and 1e-52: omega ~ 1e25, so the eta^24
    # identity's (2 omega)^12 overflows
    (["periods", "--g2", "1.3e-102,2e-103", "--g3", "4e-154,-7e-154"], 2),
    (["periods", "--g2", "1.3e-104,2e-105", "--g3", "4e-157,-7e-157"], 2),
    # a point whose modulus passes the double range ended in an OverflowError traceback:
    # abs() of it, or of its distance to a node, raised; and -1/tau overflowed to inf
    (["holonomy", "--family", None, "--center", "1.7e308,1.7e308", "--radius", "0.5",
      "--operator", "dbar", "--orientation", "ccw"], 2),
    (["anomaly", "--family", None, "--at", "1.7e308,1.7e308"], 2),
    (["scan", "--family", None, "--grid", "1.7e308,1e200,1.7e308,1.7e308,2,2", "--margin", "1e8"],
     2),
    (["determinants", "--tau", "1e-320,1e-320", "--two-omega", "1,0"], 2),
    (["zeta-oracle", "--tau", "1e-320,5e-324", "--two-omega", "1,0", "--nu1", "0", "--nu2", "0"],
     2),
])
def test_overflowing_input_is_one_error_line(capsys, family_file, argv, expected):
    code, out, err = _run(capsys, [family_file(0) if a is None else a for a in argv])
    assert code == expected and out == ""
    assert _one_error_line(err)


def test_eta_products_per_determinants_request_and_scan_point(capsys, family_file, monkeypatch):
    # determinants: 1 for the reduced basis' eta, which det', the annulus, the Quillen norm
    # and the twisted determinants and their theta quotients share, 2 for the quotients'
    # eta(tau/2) and eta(2 tau), which the reduced basis keeps for all three even
    # structures, and 1 for the flat annulus on the given basis; a scan
    # point: 1, the solve's, which F1 reads again;
    # an anomaly item: 1 per period solve of its 9-point stencil
    from uplane import modular

    import uplane.periods as P

    calls, loops = [], []
    product, series = modular._eta_qproduct, modular.eisenstein_in_f
    monkeypatch.setattr(modular, "_eta_qproduct", lambda q: calls.append(q) or product(q))
    for module in (modular, P):  # E4 and E6 are summed in one loop
        monkeypatch.setattr(module, "eisenstein_in_f", lambda q: loops.append(q) or series(q))
    argv = ["determinants", "--tau", "1.3,0.2", "--two-omega", "1,0.5"]
    assert _run(capsys, argv)[0] == 0
    assert len(calls) == 4
    calls.clear()
    code, out, _ = _run(capsys, ["scan", "--family", family_file(0), "--grid", "2,3,2,3,3,3"])
    assert code == 0 and len(out.strip().split("\n")) == 1 + 9
    assert len(calls) == 9
    calls.clear()
    loops.clear()
    assert _run(capsys, ["anomaly", "--family", family_file(0), "--at", "0.3,0.9"])[0] == 0
    assert len(calls) == 9 and len(loops) == 9


def test_scan_solves_each_point_once(capsys, family_file, monkeypatch):
    import uplane.periods as P

    calls = []
    solve = P.compute_periods
    monkeypatch.setattr(P, "compute_periods", lambda *a, **kw: calls.append(a) or solve(*a, **kw))
    code, out, _ = _run(
        capsys, ["scan", "--family", family_file(0), "--grid", "2,3,2,3,3,3", "--margin", "0.1"]
    )
    rows = out.strip().split("\n")[1:]
    assert code == 0 and len(rows) == 9
    assert len(calls) == len(rows)


def test_a_scan_point_evaluates_delta_once(capsys, family_file, monkeypatch):
    # per emitted point: g2 and g3 for the fiber's curve, W for d tau/du, and one Delta(u)
    # that the scalar curvature and the Quillen norm share
    from uplane.curves import ComplexPoly, discriminant_poly
    from uplane.geometry import f1_from_periods, scalar_curvature
    from uplane.periods import periods_along_family

    argv = ["scan", "--family", family_file(2), "--grid", "0.5,1.5,1,2,3,3"]
    calls = []
    horner = ComplexPoly.__call__
    monkeypatch.setattr(ComplexPoly, "__call__", lambda p, u: calls.append(u) or horner(p, u))
    code, out, _ = _run(capsys, argv)
    rows = out.strip().split("\n")[1:]
    assert code == 0 and len(rows) == 9
    assert len(calls) == 4 * len(rows)
    monkeypatch.undo()
    fam = sample_family(2)
    for row in rows:
        x, y = (float(v) for v in row.split(",")[:2])
        u = complex(x, y)
        p = periods_along_family(fam, u)
        expect = (x, y, p.tau.imag, f1_from_periods(p),
                  abs(discriminant_poly(fam)(u)) ** (1 / 12), scalar_curvature(fam, u, p))
        assert row == ",".join(f"{v:.17e}" for v in expect)


def test_anomaly_item_solves_through_the_traced_names(capsys, family_file, monkeypatch):
    # one item: the 9 points of the stencil, each one compute_periods with 2 AGMs and
    # one cubic, called through the periods module globals a layer tracer wraps
    import uplane.periods as P

    calls = {"compute_periods": 0, "agm": 0, "cubic_roots": 0}
    for name in calls:
        def counted(*a, _fn=getattr(P, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(P, name, counted)
    assert _run(capsys, ["anomaly", "--family", family_file(0), "--at", "0.3,0.9"])[0] == 0
    assert calls == {"compute_periods": 9, "agm": 18, "cubic_roots": 9}


def test_scan_curvature_matches_library(capsys, family_file):
    from uplane.geometry import scalar_curvature
    from uplane.periods import periods_along_family

    fam = sample_family(0)
    code, out, _ = _run(
        capsys, ["scan", "--family", family_file(0), "--grid", "0.5,1.5,-0.5,0.5,3,3",
                 "--margin", "0.2"]
    )
    assert code == 0
    for row in out.strip().split("\n")[1:]:
        cells = row.split(",")
        u = complex(float(cells[0]), float(cells[1]))
        assert cells[5] == f"{scalar_curvature(fam, u, periods_along_family(fam, u)):.17e}"


def test_every_value_flag_joins_its_value():
    # _join_flag_values glues a negative "RE,IM" to its flag only for flags it knows,
    # so each option that takes a value must be listed there, and only those
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {opt for p in sub.choices.values() for a in p._actions if a.nargs != 0
             for opt in a.option_strings if opt.startswith("--")}
    assert flags == cli._VALUE_FLAGS


#: a valid argv per command; the argparse cases below never open nf0.json, since each
#: fails or exits while the argv is parsed
_VALID_ARGV = {
    "periods": ["--g2", "4,0", "--g3", "0,0"],
    "determinants": ["--tau", "0,1", "--two-omega", "1,0"],
    "zeta-oracle": ["--tau", "0.3,1.7", "--nu1", "0", "--nu2", "1", "--two-omega", "1,0"],
    "classify": ["--family", "nf0.json"],
    "anomaly": ["--family", "nf0.json", "--at", "0.3,0.9"],
    "holonomy": ["--family", "nf0.json", "--center", "1,0", "--radius", "0.5",
                 "--operator", "dbar", "--orientation", "cw"],
    "signature": ["--family", "nf0.json"],
    "scan": ["--family", "nf0.json", "--grid", "2,3,2,3,3,3"],
}


def _run_to_exit(capsys, argv):
    """_run, with the exit code of an argv that argparse rejects or answers itself."""
    try:
        return _run(capsys, argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


def _swapped(command, flag, value):
    argv = [command] + _VALID_ARGV[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
        return argv
    return argv + [flag, value]


_ARGPARSE_CASES = [[], ["--help"], ["-h"], ["bogus"], ["--bogus"]]
for _command, _rest in _VALID_ARGV.items():
    _ARGPARSE_CASES += [
        [_command],  # the missing required flags
        [_command, "--help"],
        [_command] + _rest + ["--bogus", "1"],
        [_command, _rest[0]],  # a flag missing its value
        [_command, "--out"],
    ]
_ARGPARSE_CASES += [
    _swapped("holonomy", "--operator", "curl"),
    _swapped("holonomy", "--orientation", "up"),
    _swapped("holonomy", "--chart", "w"),
    _swapped("holonomy", "--radius", "x"),
    _swapped("holonomy", "--samples", "1.5"),
    _swapped("zeta-oracle", "--nu1", "2"),
    _swapped("zeta-oracle", "--nu2", "x"),
    _swapped("anomaly", "--step", "x"),
    _swapped("scan", "--margin", "x"),
    # a complex flag's own parser names its value in the error line
    _swapped("periods", "--g2", "1"),
    _swapped("periods", "--g3", "1,2,3"),
    _swapped("determinants", "--tau", "i"),
    _swapped("determinants", "--two-omega", "1"),
    _swapped("anomaly", "--at", "1"),
    _swapped("holonomy", "--center", "1"),
]

#: exit code, stdout and stderr of every case, as the hand-written parser that preceded
#: the command table printed them at COLUMNS=100 (argparse words its messages per Python
#: version)
_ARGPARSE_TEXT = json.loads((Path(__file__).parent / "cli_argparse_text.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != tuple(_ARGPARSE_TEXT["python"]),
                    reason="argparse's text is pinned for one Python version")
@pytest.mark.parametrize("argv", _ARGPARSE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_argparse_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    assert list(_run_to_exit(capsys, argv)) == _ARGPARSE_TEXT["cases"][" ".join(argv)]


#: exit code and a piece of stderr when a flag is given -1e-3, a value that argparse
#: would take for an option string (its negative-number pattern does not match it):
#: each is the flag's own validation, so the value reached the flag
_LEADING_MINUS = {
    "--out": (0, ""),
    "--family": (2, "cannot read family file: [Errno 2] No such file or directory: '-1e-3'"),
    "--g2": (2, "g2: expected RE,IM but got '-1e-3'"),
    "--g3": (2, "g3: expected RE,IM but got '-1e-3'"),
    "--tau": (2, "tau: expected RE,IM but got '-1e-3'"),
    "--two-omega": (2, "2 omega: expected RE,IM but got '-1e-3'"),
    "--at": (2, "base point: expected RE,IM but got '-1e-3'"),
    "--center": (2, "loop center: expected RE,IM but got '-1e-3'"),
    "--nu1": (2, "argument --nu1: invalid int value: '-1e-3'"),
    "--nu2": (2, "argument --nu2: invalid int value: '-1e-3'"),
    "--samples": (2, "argument --samples: invalid int value: '-1e-3'"),
    "--operator": (2, "argument --operator: invalid choice: '-1e-3'"),
    "--orientation": (2, "argument --orientation: invalid choice: '-1e-3'"),
    "--chart": (2, "argument --chart: invalid choice: '-1e-3'"),
    "--step": (2, "finite-difference step must be finite and positive, not -0.001"),
    "--radius": (2, "loop center must be finite and radius finite and positive"),
    "--grid": (2, "bad --grid spec '-1e-3'"),
    "--margin": (2, "--margin must be finite and >= 0, not -0.001"),
}


@pytest.mark.parametrize("command, flag", [
    (name, flag) for name, _, _, options in cli._COMMANDS for flag, _ in (cli._OUT, *options)
])
def test_every_value_flag_takes_a_leading_minus_value(capsys, family_file, monkeypatch,
                                                      tmp_path, command, flag):
    monkeypatch.chdir(tmp_path)  # the argvs read nf0.json, and --out writes -1e-3, here
    family_file(0)
    code, out, err = _run_to_exit(capsys, _swapped(command, flag, "-1e-3"))
    expected_code, message = _LEADING_MINUS[flag]
    assert code == expected_code and message in err
    assert "expected one argument" not in err
    if flag == "--out":
        assert out == "" and err == "" and (tmp_path / "-1e-3").stat().st_size > 0


@pytest.mark.parametrize("argv, flag", [
    (["periods", "--g2", "--g3", "0,0"], "--g2"),
    (["anomaly", "--family", "--at", "0.3,0.9"], "--family"),
    (["classify", "--family", "--out", "x.json"], "--family"),
])
def test_a_flag_followed_by_an_option_misses_its_value(capsys, monkeypatch, tmp_path, argv, flag):
    # the option after the flag is not glued to it as its value, so argparse names the flag
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_to_exit(capsys, argv)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument {flag}: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


def test_no_option_string_is_glued_as_a_value():
    options = sorted(cli._VALUE_FLAGS) + ["-h", "--help"]
    for flag in cli._VALUE_FLAGS:
        for option in options:
            assert cli._join_flag_values([flag, option]) == [flag, option]
        assert cli._join_flag_values([flag, "-3,1"]) == [flag + "=-3,1"]


#: finite floats, signed zeros, subnormals, infinities and NaN
_FIELD = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                         math.inf, -math.inf, math.nan, -math.nan])


@settings(max_examples=500, deadline=None)
@given(st.lists(_FIELD, min_size=6, max_size=6))
@example([-0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
def test_a_csv_row_template_writes_each_field_as_format_does(row):
    # one %-format per row writes what a join of f"{x:.17e}" fields wrote
    assert cli._SCAN_ROW % tuple(row) == ",".join(f"{x:.17e}" for x in row)
    assert cli._ANOMALY_ROW % tuple(row[:5]) == ",".join(f"{x:.17e}" for x in row[:5])


#: finite extremes of a double in both signs: zeros, subnormals, tiny, unit-sized and
#: huge magnitudes up to 1.7e308
_EXTREME = st.sampled_from([0.0, 5e-324, 1e-320, 1e-200, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e200,
                            1e308, 1.7e308]).flatmap(lambda x: st.sampled_from([x, -x]))
_REAL = _EXTREME.map(repr)
_PAIR = st.tuples(_EXTREME, _EXTREME).map(lambda z: f"{z[0]!r},{z[1]!r}")


def _argvs(command, *options):
    """argvs of one command; an option is (flag, strategy), and a None drawn leaves it out."""
    parts = [values.map(lambda v, flag=flag: [] if v is None else [flag, v])
             for flag, values in options]
    return st.tuples(*parts).map(lambda drawn: [command] + [t for part in drawn for t in part])


_FAMILY_OPTION = ("--family", st.sampled_from([f"@nf{nf}" for nf in range(5)]))
_CONTRACT_ARGVS = st.one_of(
    _argvs("periods", ("--g2", _PAIR), ("--g3", _PAIR)),
    _argvs("determinants", ("--tau", _PAIR), ("--two-omega", _PAIR)),
    _argvs("zeta-oracle", ("--tau", _PAIR), ("--two-omega", _PAIR),
           ("--nu1", st.sampled_from("01")), ("--nu2", st.sampled_from("01"))),
    _argvs("classify", _FAMILY_OPTION),
    _argvs("signature", _FAMILY_OPTION),
    _argvs("anomaly", _FAMILY_OPTION, ("--at", _PAIR), ("--step", st.none() | _REAL)),
    _argvs("holonomy", _FAMILY_OPTION, ("--center", _PAIR), ("--radius", _REAL),
           ("--operator", st.sampled_from(["dbar", "signature"])),
           ("--orientation", st.sampled_from(["cw", "ccw"])),
           ("--chart", st.sampled_from([None, "u", "v"])),
           ("--samples", st.sampled_from([None, "-1", "0", "64", "1024", str((1 << 20) + 1)]))),
    _argvs("scan", _FAMILY_OPTION,
           ("--grid", st.tuples(_EXTREME, _EXTREME, _EXTREME, _EXTREME, st.integers(0, 3),
                                st.integers(0, 3)).map(lambda g: ",".join(map(repr, g)))),
           ("--margin", st.none() | _REAL)),
)


@pytest.fixture(scope="module")
def contract_families(tmp_path_factory):
    """'@name' -> the path of a family file: nf0..nf4, and the families of
    _NODES_BEYOND_DOUBLE."""
    root = tmp_path_factory.mktemp("families")
    docs = {f"nf{nf}": family_to_dict(sample_family(nf)) for nf in range(5)}
    docs.update(_NODES_BEYOND_DOUBLE)
    paths = {}
    for name, doc in docs.items():
        paths["@" + name] = str(root / f"{name}.json")
        Path(paths["@" + name]).write_text(json.dumps(doc))
    return paths


@settings(max_examples=150, deadline=None)
@given(_CONTRACT_ARGVS)
@example(["holonomy", "--family", "@nf0", "--center", "1.7e308,1.7e308", "--radius", "0.5",
          "--operator", "dbar", "--orientation", "ccw"])
@example(["anomaly", "--family", "@nf0", "--at", "1.7e308,1.7e308"])
@example(["scan", "--family", "@nf0", "--grid", "1.7e308,1e200,1.7e308,1.7e308,2,2",
          "--margin", "1e8"])
@example(["determinants", "--tau", "1e-320,1e-320", "--two-omega", "1,0"])
@example(["zeta-oracle", "--tau", "1e-320,5e-324", "--two-omega", "1,0", "--nu1", "0",
          "--nu2", "0"])
# the basis forms its eta before its nome: the eta multiplier of a tau this far out once
# overflowed where the nome's "math domain error" had ended the request
@example(["determinants", "--tau", "1.7976931348623157e+308,1e-200", "--two-omega", "1,0"])
@example(["classify", "--family", "@far"])
@example(["classify", "--family", "@subnormal"])
def test_cli_contract(contract_families, argv):
    # every argv ends in exit 0, 1 or 2, never in a traceback or a warning; a nonzero
    # exit writes one error line last, after at most scan's skip lines.  argparse's own
    # refusals print its usage text and exit 2.  Warnings are errors inside main only:
    # the test runner's own warnings stay warnings
    argv = [contract_families.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert all(line.startswith("scan: skipping u=") for line in lines[:-1])
    if code:
        assert lines[-1].startswith("error: ") and out.getvalue() == ""
    else:
        assert not lines or lines[-1].startswith("scan: skipping u=")
