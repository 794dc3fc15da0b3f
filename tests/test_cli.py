import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmct
from conftest import demo_network, detour_network, parallel_falling_costs, VARIANT_A_BALANCES
from qmct import cli, pipeline
from qmct.errors import HorizonLimitError, InfeasibleError
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


def test_huge_exponent_is_rejected_without_parsing(tmp_path):
    # Fraction("1e99999999999") would compute 10**99999999999; run in a
    # subprocess with a timeout so that a regression fails instead of hanging.
    path = tmp_path / "huge.json"
    arc = {"tail": "s", "head": "t", "capacity": "1e99999999999", "transit": 1, "cost": 0}
    path.write_text(json.dumps({"nodes": ["s", "t"], "arcs": [arc], "balances": {"s": 1, "t": -1}}))
    src = str(Path(qmct.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "qmct.cli", "solve", str(path)],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
    )
    assert done.returncode == 3, done.stderr
    assert "arc 0 capacity: exponent of '1e99999999999' exceeds 4300" in done.stderr


@pytest.mark.parametrize(
    "arc, message",
    [
        ({"tail": ["a"], "head": "b"}, "arc 0 tail must be a string node id"),
        ({"tail": "a", "head": {"id": "b"}}, "arc 0 head must be a string node id"),
        ({"tail": 1, "head": "b"}, "arc 0 tail must be a string node id"),
    ],
)
def test_non_string_arc_endpoint_is_a_validation_error(capsys, tmp_path, arc, message):
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps({"nodes": ["a", "b"], "arcs": [arc]}))
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == 3
    assert err == f"validation error: {message}\n"


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


def test_oracle_reports_static_infeasibility_under_max_horizon(capsys, tmp_path):
    # No arc leaves the source, so no horizon is feasible.  The oracle's
    # static flow proves it before any expansion, so a layer limit far
    # below the bound (1 + 2 * 5 = 11) raises the same InfeasibleError.
    net = Network.of(["a", "b", "c"], [("b", "c", 1, 5, 0)], {"a": 1, "c": -1})
    path = tmp_path / "stranded.json"
    save_instance(net, path)
    with pytest.raises(InfeasibleError) as free:
        pipeline.oracle_quickest_mincost(net)
    with pytest.raises(InfeasibleError) as guarded:
        pipeline.oracle_quickest_mincost(net, max_layers=3)
    assert str(free.value) == str(guarded.value) == (
        "horizon 11 too small: 1 units cannot arrive in time"
    )
    assert free.value.certificate == guarded.value.certificate == {"horizon": 11, "deficit": 1}
    code, out, err = _run(capsys, ["solve", str(path), "--mode", "oracle", "--max-horizon", "3"])
    assert (code, out) == (2, "")
    assert "horizon 11 too small" in err


def test_oracle_mode_and_verify_share_the_oracle_size_guard(capsys, tmp_path):
    nodes = [f"v{i}" for i in range(11)]
    arcs = [(u, v, 1, 1, 0) for u, v in zip(nodes, nodes[1:])]
    path = tmp_path / "eleven.json"
    save_instance(Network.of(nodes, arcs, {"v0": 1, "v10": -1}), path)
    guard = "guard tripped: oracle size guard: 11 nodes exceeds limit 10\n"
    for argv in (["solve", str(path), "--mode", "oracle"], ["verify", str(path)]):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (4, "", guard), argv


def test_max_horizon_equal_to_the_answer_solves(capsys, tmp_path):
    path = tmp_path / "detour.json"
    save_instance(detour_network(), path)
    code, out, _ = _run(capsys, ["solve", str(path), "--max-horizon", "9"])
    assert code == 0
    assert json.loads(out)["horizon"]["steps"] == 9


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


def test_verify_fits_the_oracle_under_max_horizon(capsys, tmp_path):
    # Four reachable source-sink pairs through one middle node; the answer
    # is 11 steps.  The oracle's scan stops at the answer, so a layer limit
    # equal to it is enough, though its bound is 2 + 4 * 5 = 22 layers.
    net = Network.of(
        ["s1", "s2", "m", "t1", "t2"],
        [
            ("s1", "m", 1, 5, 0),
            ("s2", "m", 1, 5, 0),
            ("m", "t1", 1, 5, 0),
            ("m", "t2", 1, 5, 0),
        ],
        {"s1": 1, "s2": 1, "t1": -1, "t2": -1},
    )
    path = tmp_path / "fan.json"
    save_instance(net, path)
    assert pipeline.oracle_quickest_mincost(net, max_layers=11) == (0, 11)
    with pytest.raises(HorizonLimitError):
        pipeline.oracle_quickest_mincost(net, max_layers=10)
    code, out, err = _run(capsys, ["verify", str(path), "--max-horizon", "11"])
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)
    code, out, err = _run(capsys, ["verify", str(path), "--max-horizon", "10"])
    assert (code, out) == (4, "")
    assert err.startswith("guard tripped: ")


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


# Each argv, with "{dir}" standing for the test's directory holding the
# files below, and a fragment of the one line it must print on stderr.
GEN = ["generate", "--seed", "1", "--out", "{dir}/generated.json"]
BAD_INVOCATIONS = {
    "missing file": (["solve", "{dir}/missing.json"], "cannot read (No such file or directory)"),
    "directory": (["solve", "{dir}"], "cannot read (Is a directory)"),
    "nodes 1": ([*GEN, "--nodes", "1"], "nodes must be at least 2, got 1"),
    "terminals 0": ([*GEN, "--terminals", "0"], "terminals must be at least 1, got 0"),
    "missing seed": (
        ["generate", "--out", "{dir}/generated.json"],
        "qmct generate: the following arguments are required: --seed",
    ),
    "nodes abc": ([*GEN, "--nodes", "abc"], "argument --nodes: invalid int value: 'abc'"),
    "no command": ([], "qmct: the following arguments are required: command"),
    "cap-max 0": ([*GEN, "--cap-max", "0"], "cap_max must be at least 1, got 0"),
    "tau-max -1": ([*GEN, "--tau-max", "-1"], "tau_max must be at least 0, got -1"),
    "cost-max -1": ([*GEN, "--cost-max", "-1"], "cost_max must be at least 0, got -1"),
    "solve max-horizon -1": (
        ["solve", "{dir}/demo.json", "--max-horizon", "-1"], "--max-horizon must be at least 0"
    ),
    "verify max-horizon -1": (
        ["verify", "{dir}/demo.json", "--max-horizon", "-1"], "--max-horizon must be at least 0"
    ),
    "text with schedule and storage": (
        ["solve", "{dir}/demo.json", "--text", "--emit-schedule", "--storage-trace"],
        "--text prints no schedule or storage: drop --emit-schedule and --storage-trace",
    ),
    "oracle text with schedule": (
        ["solve", "{dir}/demo.json", "--mode", "oracle", "--text", "--emit-schedule"],
        "--mode oracle prints only its cost and horizon, as JSON: "
        "drop --text and --emit-schedule",
    ),
    "oracle text": (
        ["solve", "{dir}/demo.json", "--mode", "oracle", "--text"],
        "--mode oracle prints only its cost and horizon, as JSON: drop --text",
    ),
    "static with schedule and storage": (
        ["solve", "{dir}/demo.json", "--mode", "mincost-static"]
        + ["--emit-schedule", "--storage-trace"],
        "--mode mincost-static has no schedule: drop --emit-schedule and --storage-trace",
    ),
    "non-string endpoint": (["solve", "{dir}/endpoint.json"], "arc 0 tail must be a string node id"),
    "JSON float": (["solve", "{dir}/float.json"], "arc 0 cost: floats are not exact"),
    "bad JSON": (["solve", "{dir}/broken.json"], "not valid JSON"),
    "not UTF-8": (["solve", "{dir}/binary.json"], "not valid JSON ('utf-8' codec can't decode"),
    "deep JSON": (
        ["solve", "{dir}/deep.json"], "not valid JSON (maximum recursion depth exceeded"
    ),
    "missing out dir": (
        ["generate", "--seed", "1", "--out", "{dir}/missing/generated.json"],
        "cannot write (No such file or directory)",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INVOCATIONS))
def test_bad_input_exits_with_one_message_and_no_traceback(capsys, tmp_path, case):
    argv, fragment = BAD_INVOCATIONS[case]
    save_instance(demo_network(), tmp_path / "demo.json")
    arc = {"tail": "a", "head": "b"}
    for name, doc in (("endpoint", {**arc, "tail": 1}), ("float", {**arc, "cost": 0.5})):
        (tmp_path / f"{name}.json").write_text(json.dumps({"nodes": ["a", "b"], "arcs": [doc]}))
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00garbage")
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    code, _, err = _run(capsys, [a.replace("{dir}", str(tmp_path)) for a in argv])
    assert code in (2, 3, 4), err
    assert err.startswith(("validation error:", "infeasible:", "guard tripped:")), err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and fragment in err, err
    assert not (tmp_path / "generated.json").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as caught:
        cli.main(["--help"])
    assert caught.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qmct")
