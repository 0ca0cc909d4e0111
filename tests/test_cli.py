import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matchtop import catalog, cli
from matchtop import graphs as gr

import oracle_utils


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_build_and_graph6_round_trip(capsys):
    g6 = gr.to_graph6(oracle_utils.relabel(gr.cycle(5), [2, 0, 3, 1, 4]))
    code, out, _ = run_cli(capsys, "build", "--graph6", g6, "--emit-graph6")
    assert code == 0
    assert out.strip() == gr.canonical_form(gr.cycle(5)).decode()


def test_build_json_fields(capsys):
    code, data, _ = run_json(capsys, "build", "--name", "K32")
    assert code == 0
    assert data["vertices"] == 5 and data["edges"] == 6
    assert data["matching_complex"]["f_vector"] == [6, 6]


def test_build_every_catalog_name(capsys):
    for name in catalog.catalog_names():
        code, data, err = run_json(capsys, "build", "--name", name)
        assert code == 0, (name, err)
        over_cap = data["vertices"] > gr.CANONICAL_VERTEX_CAP
        assert (data["canonical_graph6"] is None) == over_cap, name
    # the canonical form itself keeps the cap
    code, _, err = run_cli(capsys, "build", "--name", "sp5", "--emit-graph6")
    assert code == 1 and "canonicalization cap" in err


def test_homology_c7_moebius_fingerprint(capsys):
    code, data, _ = run_json(capsys, "homology", "--name", "C7-matching", "--p", "3")
    assert code == 0
    assert data["results"] == [{"p": 3, "betti": [0, 1, 0]}]
    assert data["f_vector"] == [7, 14, 7]
    assert data["euler_characteristic"] == 0


def test_manifold_k43_torus(capsys):
    code, data, _ = run_json(capsys, "manifold", "--name", "K43")
    assert code == 0
    assert data["status"] == "ClosedManifold"
    assert data["class"] == "Torus"
    assert data["f_vector"] == [12, 36, 24]


def test_classify_subcommand(capsys):
    code, data, _ = run_json(capsys, "classify", "--name", "Sp3")
    assert code == 0
    assert data["class"] == "Ball(2)"


def test_predict_subcommand(capsys):
    code, data, _ = run_json(capsys, "predict", "--name", "3P3")
    assert code == 0
    assert data["class"] == "Sphere(2)" and data["kind"] == "basic"


def test_catalog_listing(capsys):
    code, data, _ = run_json(capsys, "catalog")
    assert code == 0
    names = {e["name"] for e in data["entries"]}
    assert {"K43", "annulus_8e", "moebius_c7", "torus_disk_11e", "3P2"} <= names


def test_verify_match_exits_zero(capsys):
    code, data, _ = run_json(capsys, "verify", "--target", "1-sphere", "--max-edges", "6")
    assert code == 0
    assert data["verdict"] == "Match"


@pytest.mark.parametrize("target", [
    "1-sphere", "2-sphere", "closed-2-manifold", "2-manifold-with-boundary",
    "connected-2-manifold-with-boundary", "disconnected-complex"])
def test_verify_every_target_matches(capsys, target):
    code, data, _ = run_json(capsys, "verify", "--target", target, "--max-edges", "6")
    assert code == 0
    assert data["verdict"] == "Match"
    assert data["spec"]["target"] == target


def test_verify_unknown_target_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--target", "klein-bottle",
                             "--max-edges", "6")
    assert code == 1 and out == "" and "unknown search target" in err


def test_verify_mismatch_exits_two(capsys, monkeypatch):
    # inject a bogus expectation so the comparison must fail
    real = catalog.expected_search_hits

    def fake(target, max_edges, max_vertices, connected_only):
        out = real(target, max_edges, max_vertices, connected_only)
        out.append(("bogus", gr.cycle(6), "Sphere(1)"))
        return out

    monkeypatch.setattr(catalog, "expected_search_hits", fake)
    code, out, err = run_cli(capsys, "verify", "--target", "1-sphere", "--max-edges", "5")
    assert code == 2
    assert json.loads(out)["verdict"] == "MissingHit"
    assert "MissingHit" in err


def test_props_subcommand(capsys):
    code, data, _ = run_json(capsys, "props", "--seed", "1", "--trials", "10")
    assert code == 0
    assert data["failures"] == []


def test_props_fewer_than_one_trial_exits_one(capsys):
    for trials in ("0", "-3"):
        code, out, err = run_cli(capsys, "props", "--trials", trials)
        assert code == 1 and out == "" and "trials" in err


@pytest.mark.parametrize("command", ["manifold", "classify"])
def test_third_prime_exits_one(capsys, command):
    code, out, err = run_cli(capsys, command, "--name", "K43",
                             "--p", "2", "--p", "3", "--p", "5")
    assert code == 1 and out == "" and "two distinct --p" in err
    # a repeated prime is not a third one
    code, data, _ = run_json(capsys, command, "--name", "K43",
                             "--p", "3", "--p", "2", "--p", "3")
    assert code == 0 and data["class"] == "Torus"


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "build")
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(capsys, "build", "--name", "K43", "--graph6", "C~")
    assert code == 1
    code, _, err = run_cli(capsys, "build", "--name", "not-a-graph")
    assert code == 1 and "unknown graph name" in err
    code, _, err = run_cli(capsys, "build", "--graph6", "!!!")
    assert code == 1
    code, _, err = run_cli(capsys, "build", "--graph6", "é")
    assert code == 1


def test_verify_nonsensical_budget_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--target", "1-sphere", "--max-edges", "-1")
    assert code == 1 and out == "" and "max_edges" in err
    code, out, err = run_cli(capsys, "verify", "--target", "1-sphere", "--max-vertices", "0")
    assert code == 1 and out == "" and "max_vertices" in err


def test_verify_non_prime_exits_one_before_searching(capsys):
    code, out, err = run_cli(capsys, "verify", "--target", "disconnected-complex",
                             "--max-edges", "4", "--cross-check-prime", "0")
    assert code == 1 and out == "" and "not prime" in err


def test_verify_second_prime_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--target", "1-sphere",
                             "--max-edges", "4", "--p", "2", "--p", "5")
    assert code == 1 and out == "" and "--cross-check-prime" in err


def test_edge_file_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(oracle_utils.format_edge_list(gr.complete_bipartite(4, 3)))
    code, data, _ = run_json(capsys, "manifold", "--edges", str(path))
    assert code == 0 and data["class"] == "Torus"
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 banana\n")
    code, _, err = run_cli(capsys, "homology", "--edges", str(bad))
    assert code == 1 and "line 2" in err


def test_unreadable_edge_file_exits_one(tmp_path, capsys):
    # a directory, a missing file and non-UTF-8 bytes are input errors
    latin = tmp_path / "latin1.txt"
    latin.write_bytes(b"2 1\n0 1 \xe9\n")
    for path in (tmp_path, tmp_path / "missing.txt", latin):
        code, out, err = run_cli(capsys, "build", "--edges", str(path))
        assert code == 1 and out == "" and err.startswith("error: ")
        assert "Traceback" not in err
    _, _, err = run_cli(capsys, "build", "--edges", str(latin))
    assert "UTF-8" in err


def test_out_flag_to_a_directory_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "build", "--name", "K32", "--out", str(tmp_path))
    assert code == 1 and err.startswith("error: ")


def test_table_format_carries_same_data(capsys):
    code, data, _ = run_json(capsys, "classify", "--name", "C7")
    code2, out, _ = run_cli(capsys, "classify", "--name", "C7", "--format", "table")
    assert code == code2 == 0
    rows = dict(line.rsplit(None, 1) for line in out.strip().splitlines())
    assert json.loads(rows["class"]) == data["class"]
    assert json.loads(rows["status"]) == data["status"]


def test_out_flag_writes_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, data, _ = run_json(capsys, "verify", "--target", "1-sphere",
                             "--max-edges", "4", "--out", str(path))
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == data


def test_verify_same_prime_twice_reports_no_cross_check(capsys):
    code, data, _ = run_json(capsys, "verify", "--target", "1-sphere",
                             "--max-edges", "5", "--p", "3")
    assert code == 0 and data["verdict"] == "Match"
    assert data["spec"]["p"] == 3
    assert data["spec"]["cross_check_prime"] is None
    code, data, _ = run_json(capsys, "verify", "--target", "1-sphere", "--max-edges", "5")
    assert data["spec"]["cross_check_prime"] == 3


def test_manifold_one_prime_reports_no_cross_check(capsys):
    code, data, _ = run_json(capsys, "manifold", "--name", "K43", "--p", "3")
    assert code == 0 and data["class"] == "Torus"
    assert data["betti"] == [{"p": 3, "betti": [0, 2, 1]}]
    assert data["cross_check_status"] is None
    code, data, _ = run_json(capsys, "manifold", "--name", "K43")
    assert [b["p"] for b in data["betti"]] == [2, 3]
    assert data["cross_check_status"] == "ClosedManifold"


def test_python_dash_m_runs_without_an_install():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "matchtop", "verify", "--target", "1-sphere",
         "--max-edges", "4"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "Match"
