import json

import pytest

from eonsim import data
from eonsim.cli import main

NETWORK = str(data.data_path("nsfnet_network.json"))
ROUTES = str(data.data_path("nsfnet_routes_k3.json"))
FULL = str(data.data_path("bit_rates.json"))
BPSK = str(data.data_path("bit_rates_bpsk.json"))


def run_cli(tmp_path, *extra, out_name="run.dat"):
    out = tmp_path / out_name
    argv = ["--network", NETWORK, "--routes", ROUTES,
            "--algorithm", "FF", "--goal", "300",
            "--lambda", "18,90", "--mu", "10",
            "--progress", "0", "--out", str(out), *extra]
    return main(argv), out


def test_sweep_end_to_end(tmp_path, capsys):
    code, out = run_cli(tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert [float(line.split()[0]) for line in lines] == [1.8, 9.0]
    stdout = capsys.readouterr().out
    assert f"wrote {out}" in stdout


def test_identical_invocations_are_byte_identical(tmp_path):
    code_a, out_a = run_cli(tmp_path, out_name="a.dat")
    code_b, out_b = run_cli(tmp_path, out_name="b.dat")
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_explicit_bitrates_and_max_routes(tmp_path):
    code, out = run_cli(tmp_path, "--bitrates", BPSK, "--max-routes", "1")
    assert code == 0
    assert out.exists()


def test_no_bitrates_uses_the_bundled_full_catalog(tmp_path):
    # At 150 Erlang the full and BPSK-only catalogs block differently.
    heavy = ("--goal", "2000", "--lambda", "1500")
    outputs = {}
    for name, extra in (("default", ()),
                        ("full", ("--bitrates", FULL)),
                        ("bpsk", ("--bitrates", BPSK))):
        code, out = run_cli(tmp_path, *heavy, *extra, out_name=f"{name}.dat")
        assert code == 0
        outputs[name] = out.read_bytes()
    assert outputs["default"] == outputs["full"]
    assert outputs["default"] != outputs["bpsk"]


def test_progress_lines_appear(tmp_path, capsys):
    out = tmp_path / "run.dat"
    code = main(["--network", NETWORK, "--routes", ROUTES,
                 "--algorithm", "FLF", "--goal", "200", "--lambda", "18",
                 "--mu", "10", "--progress", "100", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "algorithm=FLF" in stdout
    assert "progress requests=100" in stdout
    assert "done requests=200" in stdout


def test_per_bitrate_flag(tmp_path, capsys):
    out = tmp_path / "run.dat"
    code = main(["--network", NETWORK, "--routes", ROUTES,
                 "--algorithm", "FF", "--goal", "200", "--lambda", "18",
                 "--mu", "10", "--progress", "0", "--per-bitrate",
                 "--out", str(out)])
    assert code == 0
    assert "bitrate=" in capsys.readouterr().out


def test_per_bitrate_lines_cover_the_catalog_in_its_order(tmp_path, capsys):
    # Three requests draw 100, 40 and 1000 Gbps; 10 and 400 are never drawn.
    code, _ = run_cli(tmp_path, "--goal", "3", "--lambda", "18", "--per-bitrate")
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("bitrate=")]
    assert lines == [
        "bitrate=10 requests=0 blocked=0 blocking=0.000000e+00",
        "bitrate=40 requests=1 blocked=0 blocking=0.000000e+00",
        "bitrate=100 requests=1 blocked=0 blocking=0.000000e+00",
        "bitrate=400 requests=0 blocked=0 blocking=0.000000e+00",
        "bitrate=1000 requests=1 blocked=0 blocking=0.000000e+00",
    ]


def test_per_bitrate_lines_do_not_depend_on_workers(tmp_path, capsys):
    outputs = {}
    for workers in ("1", "2"):
        code, out = run_cli(tmp_path, "--per-bitrate", "--workers", workers,
                            out_name=f"w{workers}.dat")
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("bitrate=")]
        outputs[workers] = (lines, out.read_bytes())
    assert len(outputs["1"][0]) == 10  # 5 bitrates x 2 loads
    assert outputs["1"] == outputs["2"]


def test_workers_flag_matches_serial(tmp_path):
    _, serial = run_cli(tmp_path, out_name="serial.dat")
    _, parallel = run_cli(tmp_path, "--workers", "2", out_name="parallel.dat")
    assert serial.read_bytes() == parallel.read_bytes()


def test_bad_lambda_csv(tmp_path, capsys):
    out = tmp_path / "run.dat"
    code = main(["--network", NETWORK, "--routes", ROUTES,
                 "--algorithm", "FF", "--lambda", "18,abc",
                 "--out", str(out)])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_empty_lambda_list_rejected(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--lambda", ",")
    assert code == 2
    assert capsys.readouterr().err == "eonsim: --lambda needs at least one rate\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    code, out = run_cli(tmp_path, "--workers", workers)
    assert code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_negative_progress_rejected(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--progress", "-3")
    assert code == 2
    assert capsys.readouterr().err == (
        "eonsim: --progress must be at least 0, got -3\n")
    assert not out.exists()


def test_zero_progress_disables_progress_output(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--progress", "0")
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "progress requests=" not in stdout
    assert "done requests=" not in stdout
    assert f"wrote {out}" in stdout


def test_unknown_algorithm_rejected_by_parser(tmp_path):
    out = tmp_path / "run.dat"
    with pytest.raises(SystemExit):
        main(["--network", NETWORK, "--routes", ROUTES,
              "--algorithm", "WORST", "--out", str(out)])


def test_missing_input_file(tmp_path, capsys):
    out = tmp_path / "run.dat"
    code = main(["--network", str(tmp_path / "nope.json"), "--routes", ROUTES,
                 "--algorithm", "FF", "--goal", "10", "--lambda", "18",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("eonsim:")
    assert not out.exists()

@pytest.mark.parametrize("option, value", [
    ("--lambda", "nan"), ("--lambda", "inf"), ("--lambda", "-inf"),
    ("--mu", "inf"), ("--mu", "nan"), ("--mu", "-inf"),
])
def test_non_finite_rate_rejected(tmp_path, capsys, option, value):
    code, out = run_cli(tmp_path, f"{option}={value}")
    assert code == 1
    rate = "arrival" if option == "--lambda" else "departure"
    assert capsys.readouterr().err == (
        f"eonsim: {rate} rate must be finite and > 0, got {value}\n")
    assert not out.exists()


def test_routes_file_without_a_pair_fails_before_any_run(tmp_path, capsys):
    doc = json.loads(data.data_path("nsfnet_routes_k3.json").read_text())
    doc["routes"] = [pair for pair in doc["routes"]
                     if (pair["src"], pair["dst"]) != (0, 12)]
    routes = tmp_path / "routes.json"
    routes.write_text(json.dumps(doc))
    out = tmp_path / "run.dat"
    code = main(["--network", NETWORK, "--routes", str(routes),
                 "--algorithm", "FF", "--goal", "10", "--lambda", "18",
                 "--out", str(out)])
    assert code == 1
    assert "no candidate routes for pair (0, 12)" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_rate_later_in_sweep_fails_before_any_run(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--lambda", "18,nan", "--progress", "100")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "eonsim: arrival rate must be finite and > 0, got nan\n"
    assert "# eonsim" not in captured.out
    assert not out.exists()
