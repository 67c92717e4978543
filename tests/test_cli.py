import json

import pytest

from uplane import family_to_dict, isotrivial_family, sample_family
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
@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf"])
def test_anomaly_bad_step_exit_2(capsys, family_file, step):
    code, out, err = _run(
        capsys, ["anomaly", "--family", family_file(0), "--at", "0.3,0.9", "--step", step]
    )
    assert code == 2 and out == ""
    assert "step" in err


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


def test_invalid_tau_exit_2(capsys):
    code, out, err = _run(capsys, ["determinants", "--tau", "0,-1", "--two-omega", "1,0"])
    assert code == 2
    assert out == ""
    assert "Im tau" in err


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
    (["anomaly", "--at", "1e200,0"], 2),
    (["anomaly", "--at", "1e100,0"], 2),
    (["scan", "--grid", "1e200,1e200,0,0,1,1"], 2),
    (["holonomy", "--center", "0,0", "--radius", "1e200", "--operator", "dbar",
      "--orientation", "cw"], 1),
])
def test_overflowing_input_is_one_error_line(capsys, family_file, argv, expected):
    code, out, err = _run(capsys, argv[:1] + ["--family", family_file(0)] + argv[1:])
    assert code == expected and out == ""
    assert _one_error_line(err)


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


def test_scan_curvature_matches_library(capsys, family_file):
    from uplane.cli import _fmt
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
        assert cells[5] == _fmt(scalar_curvature(fam, u, periods_along_family(fam, u)))
