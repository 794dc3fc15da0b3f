import json

import pytest

from conftest import demo_network, parallel_falling_costs, VARIANT_A_BALANCES
from qmct import cli
from qmct.io import save_instance
from qmct.network import Network


@pytest.fixture
def demo_file(tmp_path, demo):
    path = tmp_path / "demo.json"
    save_instance(demo, path)
    return str(path)


@pytest.fixture
def variant_a_file(tmp_path):
    path = tmp_path / "variant-a.json"
    save_instance(demo_network(VARIANT_A_BALANCES), path)
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_default_mode_json(capsys, demo_file):
    code, out,mplerr = _run(capsys, ["solve", demo_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "quickest-mincost"
    assert doc["cost"] == "0"
    assert doc["horizon"]["steps"] == 2
    assert "schedule" not in doc


def test_solve_quickest_mode(capsys, demo_file):
    code, out, _ = _run(capsys, ["solve", demo_file, "--mode", "quickest"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cost"] == "1"
    assert doc["horizon"]["steps"] == 1


def test_solve_emits_schedule_on_request(capsys, variant_a_file):
    code, out, _ = _run(
        capsys, ["solve", variant_a_file, "--emit-schedule", "--storage-trace"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cost"] == "1/2"
    assert doc["schedule"]
    assert doc["storage"]
    for intervals in doc["schedule"].values():
        for start, end, rate in intervals:
            assert end > start


def test_solve_text_output(capsys, demo_file):
    code, out, _ = _run(capsys, ["solve", demo_file, "--text"])
    assert code == 0
    assert "cost:    0" in out
    assert "check schedule_valid: pass" in out


def test_solve_oracle_mode(capsys, demo_file):
    code, out, _ = _run(capsys, ["solve", demo_file, "--mode", "oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"mode": "oracle", "cost": "0", "horizon": 2}


def test_solve_mincost_static_mode(capsys, variant_a_file):
    code, out, _ = _run(capsys, ["solve", variant_a_file, "--mode", "mincost-static"])
    assert code == 0
    assert json.loads(out)["cost"] == "1/2"


def test_infeasible_exit_code(capsys, tmp_path):
    net = Network.of(["a", "b", "c"], [("b", "c", 1, 0, 0)], {"a": 1, "c": -1})
    path = tmp_path / "infeasible.json"
    save_instance(net, path)
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == 2
    assert "infeasible" in err


def test_validation_exit_code(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(
        json.dumps(
            {
                "nodes": ["a", "b"],
                "arcs": [{"tail": "a", "head": "b", "capacity": 1, "cost": 0}],
                "balances": {"a": "2", "b": "-1"},
            }
        )
    )
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == 3
    assert "validation error" in err


def test_bad_json_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == 3


def test_guard_exit_code(capsys, tmp_path):
    net = Network.of(["a", "b"], [("a", "b", 1, 30, 0)], {"a": 1, "b": -1})
    path = tmp_path / "slow.json"
    save_instance(net, path)
    code, _, err = _run(capsys, ["solve", str(path), "--max-horizon", "5"])
    assert code == 4
    assert "guard" in err


def test_verify_passes_on_demo(capsys, demo_file):
    code, out, _ = _run(capsys, ["verify", demo_file])
    assert code == 0
    assert "PASS validation" in out
    assert "PASS oracle_cost_match" in out
    assert "PASS oracle_horizon_match" in out
    assert "FAIL" not in out


def test_verify_and_oracle_on_parallel_arcs_with_falling_costs(capsys, tmp_path):
    path = tmp_path / "parallel.json"
    save_instance(parallel_falling_costs(), path)
    code, out, _ = _run(capsys, ["verify", str(path)])
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 6
    code, out, _ = _run(capsys, ["solve", str(path), "--mode", "oracle"])
    assert code == 0
    assert json.loads(out) == {"mode": "oracle", "cost": "-6", "horizon": 1}


def test_verify_rejects_invalid(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(
        json.dumps({"nodes": ["a"], "arcs": [], "balances": {"a": "1"}})
    )
    code, out, _ = _run(capsys, ["verify", str(path)])
    assert code == 3
    assert "FAIL validation" in out


def test_generate_round_trip(capsys, tmp_path):
    out_path = tmp_path / "generated.json"
    code, out, _ = _run(
        capsys,
        ["generate", "--seed", "9", "--nodes", "6", "--terminals", "2",
         "--tau-max", "2", "--out", str(out_path)],
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"nodes", "arcs", "balances"}
    code, out, _ = _run(capsys, ["verify", str(out_path)])
    assert code == 0


def test_generate_is_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for target in (p1, p2):
        _run(capsys, ["generate", "--seed", "5", "--out", str(target)])
    assert p1.read_text() == p2.read_text()
