import json
import warnings

import pytest

from origami_entropy import orbit, solver
from origami_entropy.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_l_shape_plain(capsys):
    code, out, _ = run(capsys, "info", "--surface", "L")
    assert code == 0
    assert "genus=2 k=2 n=1 sigma=1.7320508075688772" in out
    assert "cone_angles=6pi" in out


def test_info_o3_json(capsys):
    code, out, _ = run(capsys, "info", "--surface", "O3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 3
    assert data["cone_angles"] == ["6pi", "6pi"]
    assert len(data["vertex_classes"]) == 2


def test_info_ew(capsys):
    code, out, _ = run(capsys, "info", "--surface", "EW")
    assert code == 0
    assert "genus=3 k=1 n=4" in out


def test_info_inline_permutations(capsys):
    code, out, _ = run(capsys, "info", "--squares", "3", "--h", "(1,2)", "--v", "(1,3)")
    assert code == 0
    assert "genus=2 k=2 n=1" in out


def test_info_surface_file(capsys, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("squares: 8\nh: (1,2,3,4)(5,6,7,8)\nv: (1,6)(2,5)(3,8)(4,7)\n")
    code, out, _ = run(capsys, "info", "--surface", str(path))
    assert code == 0
    assert "genus=3 k=1 n=4" in out


def test_entropy_reference(capsys):
    code, out, _ = run(capsys, "entropy", "--surface", "L", "--s", "0", "--u", "0",
                       "--base", "equilateral", "--N", "100")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert fields["h_lo"].startswith("4.349345046141")
    assert fields["h_hi"].startswith("4.349345046141")
    assert int(fields["agree_digits"]) >= 12


def test_entropy_identity_above_equilateral(capsys):
    _, out_eq, _ = run(capsys, "entropy", "--surface", "L", "--base", "equilateral",
                       "--N", "100")
    _, out_id, _ = run(capsys, "entropy", "--surface", "L", "--base", "identity",
                       "--N", "100")
    h_eq = float(dict(l.split("=", 1) for l in out_eq.strip().split("\n"))["h_hi"])
    h_id = float(dict(l.split("=", 1) for l in out_id.strip().split("\n"))["h_lo"])
    assert h_id > h_eq


def test_entropy_ew_width(capsys):
    code, out, _ = run(capsys, "entropy", "--surface", "EW", "--base", "equilateral",
                       "--width", "1e-8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert float(data["width"]) <= 1e-8


def test_entropy_extended(capsys):
    code, out, _ = run(capsys, "entropy", "--surface", "L", "--precision", "extended",
                       "--N", "100")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert fields["h_lo"].startswith("4.34934504614150288209950550977")
    assert int(fields["agree_digits"]) >= 30


def test_scan_single_cell_matches_entropy(capsys):
    code, out, _ = run(capsys, "scan", "--surface", "L", "--s-range", "0:0:1",
                       "--u-range", "0:0:1", "--width", "1e-10")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    _, out_e, _ = run(capsys, "entropy", "--surface", "L", "--width", "1e-10")
    fields = dict(l.split("=", 1) for l in out_e.strip().split("\n"))
    h_mid = 0.5 * (float(fields["h_lo"]) + float(fields["h_hi"]))
    assert float(row[2]) == pytest.approx(h_mid, abs=1e-12)


def test_scan_csv_artifact(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "scan", "--surface", "L", "--s-range=-0.1:0.1:3",
                       "--u-range=-0.05:0.05:3", "--width", "1e-9",
                       "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "s,u,h_mid,h_width"
    assert len(lines) == 11  # 9 rows + header + argmin comment
    assert "# argmin s=0 u=0" in text
    assert "argmin" in out


def test_scan_deterministic_bytes(capsys):
    args = ("scan", "--surface", "L", "--s-range=-0.1:0.1:3", "--u-range", "0:0:1",
            "--width", "1e-9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1.encode() == out2.encode()


def test_hessian_f_target(capsys):
    code, out, _ = run(capsys, "hessian", "--surface", "L", "--target", "f",
                       "--t-fixed", "4.3493450461", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert float(data["det"]) > 0
    assert float(data["grad_norm"]) < 1e-5


def test_hessian_f_requires_t(capsys):
    code, _, err = run(capsys, "hessian", "--surface", "L", "--target", "f")
    assert code == 2
    assert "t-fixed" in err


def test_minimize(capsys):
    code, out, _ = run(capsys, "minimize", "--surface", "L", "--s", "0.2",
                       "--u", "0.04", "--tol", "1e-4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(float(data["s"])) < 1e-3
    assert abs(float(data["u"])) < 1e-3


def test_verify_deterministic_and_green(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--seed", "7")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert "FAIL" not in out1


def test_verify_connection_dump(capsys, tmp_path):
    path = tmp_path / "records.csv"
    code, out, _ = run(capsys, "verify", "--seed", "0", "--out", str(path))
    assert code == 0
    assert out == (
        "PASS connection multiplicities: L and EW, window 3: all pairs at k+1\n"
        "PASS oracle vs lattice sum: max |traced - formula| = 0.000e+00\n"
        "PASS series identity: residual 1.965e-10 vs remainder 1.965e-10; "
        "below-entropy rejected: True\n"
        "PASS gaussian-sum monotonicity grid: 0 sign violations on 2x(20x20)x3 grid\n"
        "PASS triangular lattice minimizes decay sum: min slack over 200 lattices = 3.526e-05\n"
        "PASS tail bound soundness: max (gap - bound) over 20 draws = -6.381e-14\n"
    )
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "surface,start_vertex,a,b,sector,end_vertex,length"
    # L: 1 vertex x 48 holonomies x 3 sectors; EW: 4 x 48 x 2
    assert len(lines) == 1 + 48 * 3 + 4 * 48 * 2


def test_config_file_with_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface=L\nu=0.05\n")
    _, out_cfg, _ = run(capsys, "entropy", "--config", str(cfg), "--N", "50")
    _, out_ovr, _ = run(capsys, "entropy", "--config", str(cfg), "--u", "0", "--N", "50")
    h_cfg = dict(l.split("=", 1) for l in out_cfg.strip().split("\n"))["h_lo"]
    h_ovr = dict(l.split("=", 1) for l in out_ovr.strip().split("\n"))["h_lo"]
    assert h_cfg != h_ovr
    assert h_ovr.startswith("4.349345046141")


def test_config_malformed(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface L\n")
    code, _, err = run(capsys, "entropy", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_missing_surface_file(capsys):
    code, _, err = run(capsys, "info", "--surface", "no-such-file")
    assert code == 2
    assert "error" in err


def test_bad_range(capsys):
    code, _, err = run(capsys, "scan", "--surface", "L", "--s-range", "0:1", "--u-range", "0:0:1")
    assert code == 2
    assert "lo:hi:n" in err


def test_torus_fails_hypothesis(capsys):
    code, _, err = run(capsys, "entropy", "--squares", "1", "--h", "", "--v", "")
    assert code == 2
    assert "singularities" in err


def test_entropy_rejects_nan_entry(capsys):
    code, out, err = run(capsys, "entropy", "--surface", "L", "--s", "nan")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("command", ["entropy", "hessian"])
def test_overflowing_stretch_is_a_validation_error(capsys, command):
    # e^1000 overflows a float: the map is rejected like a nan entry.
    code, out, err = run(capsys, command, "--surface", "L", "--u", "1000")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_extreme_stretch_fails_without_a_warning(capsys):
    # At u = +-700 the norms reach e^700: the disc's row half-widths and the
    # sum's dropped-terms bound overflow to inf, and neither may warn.
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in ("700", "-700"):
            code, out, err = run(capsys, "entropy", "--surface", "L", "--u", u, "--N", "100")
            assert (code, out) == (3, "")
            errs.append(err)
    assert errs[0] == errs[1]
    assert "no bracket found while doubling" in errs[0]


@pytest.mark.parametrize("command", ["entropy", "scan"])
@pytest.mark.parametrize("width", ["0", "-1e-8", "nan"])
def test_nonpositive_width_is_a_validation_error(capsys, command, width):
    code, out, err = run(capsys, command, "--surface", "L", f"--width={width}")
    assert code == 2
    assert out == ""
    assert "--width" in err


@pytest.mark.parametrize("argv", [
    ("info", "--surface", "L", "--format", "csv"),
    ("scan", "--surface", "L", "--format", "json"),
    ("verify", "--format", "json"),
])
def test_unsupported_format_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_entropy_near_square_extended(capsys):
    code, out, _ = run(capsys, "entropy", "--surface", "L", "--precision", "extended",
                       "--base", "0.9999061564678048,-0.01369957144518846,"
                       "0.01369957144518846,0.9999061564678048", "--N", "25")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert float(fields["h_lo"]) <= float(fields["h_hi"])


def test_entropy_without_decaying_cutoff_fails(capsys):
    # d(A) = e^-200: no cutoff up to the cap makes the tail decay.
    code, out, err = run(capsys, "entropy", "--surface", "L", "--u", "200", "--width", "1e-10")
    assert code == 3
    assert out == ""
    assert "cutoff" in err


@pytest.mark.parametrize("argv", [
    ("minimize", "--surface", "L", "--s", "5"),
    ("minimize", "--surface", "L", "--s", "inf"),
    ("minimize", "--surface", "L", "--s", "nan"),
    ("hessian", "--surface", "L", "--step", "0"),
    ("hessian", "--surface", "L", "--step", "-1"),
])
def test_orbit_input_error_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["entropy", "minimize"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_is_a_validation_error(capsys, command, tol):
    code, out, err = run(capsys, command, "--surface", "L", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "positive and finite" in err


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_entropy_cutoff_above_cap_is_a_validation_error(capsys, precision):
    code, out, err = run(capsys, "entropy", "--surface", "L", "--N", "3201",
                         "--precision", precision)
    assert code == 2
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_hessian_non_finite_t_is_a_validation_error(capsys, t):
    code, out, err = run(capsys, "hessian", "--surface", "L", "--target", "f", f"--t-fixed={t}")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("name,map_arg,target", [
    ("entropy", 1, ("entropy",)),
    ("f_truncated", 0, ("f", "--t-fixed", "4.35")),
])
def test_hessian_solves_each_stencil_map_once(capsys, monkeypatch, name, map_arg, target):
    maps = []
    solve = getattr(orbit, name)

    def recording(*args):
        maps.append(args[map_arg])
        return solve(*args)

    monkeypatch.setattr(orbit, name, recording)
    code, _, _ = run(capsys, "hessian", "--surface", "L", "--target", *target)
    assert code == 0
    assert len(maps) == len(set(maps)) == 9


def test_entropy_width_below_root_tol_floor_fails_after_two_solves(capsys, monkeypatch):
    calls = []
    enclose = solver.entropy_enclosure

    def capped(stratum, A, N, *args):
        assert len(calls) < 2, f"a third solve at N={N}"
        calls.append(N)
        return enclose(stratum, A, N, *args)

    monkeypatch.setattr(solver, "entropy_enclosure", capped)
    code, out, err = run(capsys, "entropy", "--surface", "L", "--width", "1e-14")
    assert code == 3
    assert out == ""
    assert calls == [25, 50]
    assert "does not narrow" in err


def test_scan_with_every_cell_failed_exits_3(capsys):
    code, out, err = run(capsys, "scan", "--surface", "L", "--s-range=0:0:1",
                         "--u-range=200:200:1")
    assert code == 3
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "s,u,h_mid,h_width"
    assert lines[1] == "0,200,nan,nan"
    assert lines[2] == "# argmin none"


@pytest.mark.parametrize("flag", [("--width", "1e-3"), ("--tol", "5")])
def test_extended_precision_rejects_width_and_tol(capsys, flag):
    code, out, err = run(capsys, "entropy", "--surface", "L", "--precision", "extended", *flag)
    assert code == 2
    assert out == ""
    assert flag[0] in err


@pytest.mark.parametrize("t", ["nan", "4.35"])
def test_hessian_t_fixed_requires_f_target(capsys, t):
    code, out, err = run(capsys, "hessian", "--surface", "L", f"--t-fixed={t}")
    assert code == 2
    assert out == ""
    assert "--target f" in err


@pytest.mark.parametrize("mode", [("--N", "100"), ("--width", "1e-10")])
def test_entropy_default_tol_is_the_solver_default(capsys, mode):
    _, default, _ = run(capsys, "entropy", "--surface", "L", "--s", "0.1", *mode)
    code, explicit, _ = run(capsys, "entropy", "--surface", "L", "--s", "0.1", *mode,
                            f"--tol={solver.DEFAULT_ROOT_TOL!r}")
    assert code == 0
    assert default == explicit


def test_scan_partly_failed_names_the_argmin_of_its_solved_cells(capsys):
    code, out, _ = run(capsys, "scan", "--surface", "L", "--s-range=0:0:1",
                       "--u-range=0:200:2")
    assert code == 3
    lines = out.strip().split("\n")
    assert lines[2] == "0,200,nan,nan"
    assert lines[3] == "# argmin s=0 u=0"
