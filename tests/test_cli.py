import json
import math

import numpy as np
import pytest

from omegacont.cli import main

NSTAR = {"finite": [], "generators": [{"kind": "ray", "base": [1, 0], "step": [1, 0]}]}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nstar.json").write_text(json.dumps(NSTAR))
    return tmp_path


def _path_json(points):
    pieces = [
        {"kind": "segment", "from": [a.real, a.imag], "to": [b.real, b.imag]}
        for a, b in zip(points[:-1], points[1:])
    ]
    return {"pieces": pieces}


def test_omega_check_stable(workdir, capsys):
    assert main(["omega-check", "--omega", "nstar.json", "--window", "100", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["addition_stable"] is True


def test_omega_check_witness(workdir, capsys):
    (workdir / "pair.json").write_text(json.dumps({"finite": [[1, 0], [2, 0]]}))
    assert main(["omega-check", "--omega", "pair.json", "--window", "10", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["addition_stable"] is False
    assert out["witness"] == [[1.0, 0.0], [2.0, 0.0]]


def test_continue_command(workdir, capsys):
    (workdir / "seg.json").write_text(json.dumps(_path_json([complex(0), complex(-1)])))
    rc = main(
        [
            "continue",
            "--germ",
            "log1m(1)",
            "--path",
            "seg.json",
            "--omega",
            "nstar.json",
            "--trace",
            "trace.csv",
            "--out",
            "germ.json",
            "--json",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    value = complex(out["value"][0], out["value"][1])
    assert abs(value - math.log(2)) < 1e-8
    rows = (workdir / "trace.csv").read_text().splitlines()
    assert rows[0] == "t,center_re,center_im,radius"
    assert len(rows) > 2
    reloaded = json.loads((workdir / "germ.json").read_text())
    assert abs(complex(*reloaded["coeffs"][0]) - math.log(2)) < 1e-8


def test_germ_json_round_trip_through_cli(workdir, capsys):
    (workdir / "seg.json").write_text(json.dumps(_path_json([complex(0), complex(-1)])))
    main(
        ["continue", "--germ", "log1m(1)", "--path", "seg.json", "--omega", "nstar.json", "--out", "g.json", "--json"]
    )
    capsys.readouterr()
    (workdir / "back.json").write_text(json.dumps(_path_json([complex(-1), complex(0)])))
    rc = main(
        ["continue", "--germ", "g.json", "--path", "back.json", "--omega", "nstar.json", "--json"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert abs(complex(*out["value"])) < 1e-7


def test_monodromy_command(workdir, capsys):
    rc = main(
        ["monodromy", "--germ", "log1m(1)", "--omega", "nstar.json", "--around", "1", "--base", "0.35", "--json"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert abs(complex(*out["constant_term"]) - 2j * math.pi) < 1e-7


def test_convolve_command(workdir, capsys):
    (workdir / "p.json").write_text(
        json.dumps(_path_json([complex(0.3), complex(0.5, 0.4), complex(2.6, 0.4)]))
    )
    rc = main(
        ["convolve", "--phi", "geom(1)", "--psi", "geom(2)", "--path", "p.json", "--omega", "nstar.json", "--json"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    z = 2.6 + 0.4j
    closed = (np.log(1 - z) + np.log(1 - z / 2.0)) / (z - 3.0)
    assert abs(complex(*out["value"]) - closed) < 1e-5


def test_homotopy_build_and_validate(workdir, capsys):
    (workdir / "p.json").write_text(
        json.dumps(_path_json([complex(0.5), complex(0.5, 1.0), complex(1.6, 1.0)]))
    )
    rc = main(
        ["homotopy", "--path", "p.json", "--omega", "nstar.json", "--out", "h.csv", "--json"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert out["ok"] is True
    assert (workdir / "h.csv").exists()
    assert (workdir / "h.json").exists()
    rc = main(["homotopy", "validate", "h.csv", "--omega", "nstar.json", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert out["ok"] is True


def test_homotopy_rejects_touching_path(workdir, capsys):
    (workdir / "bad.json").write_text(json.dumps(_path_json([complex(0.3), complex(1.0)])))
    rc = main(["homotopy", "--path", "bad.json", "--omega", "nstar.json"])
    assert rc == 1
    assert "clearance" in capsys.readouterr().err


def test_schema_violation_reports_pointer(workdir, capsys):
    (workdir / "oops.json").write_text(json.dumps({"pieces": [{"kind": "wiggle"}]}))
    rc = main(["homotopy", "--path", "oops.json", "--omega", "nstar.json"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "input error" in err


def test_eta_grid(workdir, capsys):
    rc = main(
        ["eta", "--omega", "nstar.json", "--eps", "0.1", "--grid=-0.5,1.5,21,-0.5,0.5,11", "--out", "eta.csv", "--json"]
    )
    assert rc == 0
    rows = (workdir / "eta.csv").read_text().splitlines()
    assert rows[0] == "x,y,eta"
    assert len(rows) == 1 + 21 * 11
    lookup = {}
    for row in rows[1:]:
        x, y, v = row.split(",")
        lookup[(float(x), float(y))] = float(v)
    assert lookup[(1.0, 0.0)] == 0.0
    assert lookup[(-0.5, -0.5)] > 0.0


def test_deterministic_output(workdir, capsys):
    (workdir / "seg.json").write_text(json.dumps(_path_json([complex(0), complex(-1)])))
    args = ["continue", "--germ", "log1m(1)", "--path", "seg.json", "--omega", "nstar.json", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_is_input_error(workdir, capsys):
    rc = main(["omega-check", "--omega", "absent.json", "--window", "5"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_verify_json_stdout_is_pure_json(capsys):
    assert main(["verify", "--json"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["ok"] is True
    assert len(out["checks"]) >= 10
    assert "verification suite" in captured.err
