"""Command-line driver: exit codes, output shapes, file round trips."""

import json

import numpy as np
import pytest

from apndoa import benchmark_spec, read_csv, read_snapshots
from apndoa.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flops_prints_the_reference_table(capsys):
    code, out, err = run_cli(capsys, "flops", "--m", "11", "--k", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "cost_D             9288",
        "cost_S             15946",
        "cost_D_with_derivs 27660",
        "cost_S_with_derivs 112003",
    ]


def test_flops_rejects_bad_orders(capsys):
    code, _, err = run_cli(capsys, "flops", "--m", "3", "--k", "5")
    assert code == 1
    assert "apndoa:" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])  # missing required --k and path
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["sweep", "--format", "xml"])


def test_verify_passes_and_fails_by_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--instances", "3", "--seed", "1")
    assert code == 0
    assert "failures    0" in out
    code, out, _ = run_cli(
        capsys, "verify", "--instances", "2", "--grad-tol", "1e-16", "--hess-tol", "1e-16"
    )
    assert code == 1
    assert "failures    0" not in out


def test_simulate_then_estimate_round_trip(tmp_path, capsys):
    batch = tmp_path / "batch.apnd"
    code, out, _ = run_cli(
        capsys, "simulate", "--snr", "30", "--trial", "2", "--out", str(batch)
    )
    assert code == 0
    assert batch.exists()
    assert "theta_true" in out
    z = read_snapshots(batch)
    assert z.shape == (11, 100)

    code, out, _ = run_cli(capsys, "estimate", str(batch), "--k", "3")
    assert code == 0
    assert "theta_hat" in out and "lambda_hat" in out
    theta = [float(x) for x in out.splitlines()[3].split()[1:]]
    # single-precision storage does not move the estimate much
    assert np.abs(np.array(theta) - [-0.2513, 0.1571, 1.005]).max() < 0.02


def test_simulate_csv_output_feeds_estimate(tmp_path, capsys):
    batch = tmp_path / "batch.csv"
    code, _, _ = run_cli(capsys, "simulate", "--snr", "20", "--out", str(batch))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "estimate", str(batch), "--k", "3", "--target", "music"
    )
    assert code == 0
    assert "found_all" in out


def test_simulate_on_grid_matches_the_sweep_stream(tmp_path, capsys):
    # same master seed and grid position => byte-identical batches
    a = tmp_path / "a.apnd"
    b = tmp_path / "b.apnd"
    run_cli(capsys, "simulate", "--snr", "20", "--trial", "1", "--out", str(a))
    run_cli(capsys, "simulate", "--snr", "20", "--trial", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    # off-grid values draw from a different stream, not a crash
    code, _, _ = run_cli(capsys, "simulate", "--snr", "17.5")
    assert code == 0


def test_estimate_geometry_mismatch_fails_cleanly(tmp_path, capsys):
    batch = tmp_path / "batch.apnd"
    run_cli(capsys, "simulate", "--out", str(batch))
    code, _, err = run_cli(
        capsys, "estimate", str(batch), "--k", "2", "--positions", "0,1,2"
    )
    assert code == 1
    assert "11 rows" in err


def test_estimate_missing_file(capsys):
    code, _, err = run_cli(capsys, "estimate", "no_such_file.apnd", "--k", "1")
    assert code == 1 and "apndoa:" in err


def test_estimate_damaged_magic_names_both_formats(tmp_path, capsys):
    batch = tmp_path / "batch.apnd"
    run_cli(capsys, "simulate", "--out", str(batch))
    raw = bytearray(batch.read_bytes())
    raw[:4] = b"XXXX"
    batch.write_bytes(bytes(raw))
    # sniffing falls back to the text reader; the message must not be a codec error
    code, _, err = run_cli(capsys, "estimate", str(batch), "--k", "3")
    assert code == 1
    assert "bad magic bytes" in err and "CSV" in err


def sweep_args(out, *extra):
    return (
        "sweep", "--out", str(out), "--trials", "2", "--snr", "10,20",
        "--estimators", "music,dmlo", *extra,
    )


def test_sweep_writes_rows_and_a_table(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, text, _ = run_cli(capsys, *sweep_args(out))
    assert code == 0
    assert "wrote" in text and "rmse" in text
    rows = read_csv(out)
    # 2 snr x 2 trials x 2 estimators x 3 angles + 4 aggregate rows
    assert len(rows) == 28
    aggs = [r for r in rows if r[2] == -1]
    assert len(aggs) == 4


def test_sweep_is_byte_deterministic_across_runs_and_threads(tmp_path, capsys):
    outs = [tmp_path / f"r{i}.csv" for i in range(3)]
    run_cli(capsys, *sweep_args(outs[0]))
    run_cli(capsys, *sweep_args(outs[1]))
    run_cli(capsys, *sweep_args(outs[2], "--threads", "8"))
    data = [o.read_bytes() for o in outs]
    assert data[0] == data[1] == data[2]


def test_sweep_threads_env_fallback(tmp_path, capsys, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_one = tmp_path / "one.csv"
    monkeypatch.setenv("APN_THREADS", "4")
    run_cli(capsys, *sweep_args(out_env))
    monkeypatch.delenv("APN_THREADS")
    run_cli(capsys, *sweep_args(out_one))
    assert out_env.read_bytes() == out_one.read_bytes()
    monkeypatch.setenv("APN_THREADS", "zero")
    code, _, err = run_cli(capsys, *sweep_args(tmp_path / "x.csv"))
    assert code == 1 and "APN_THREADS" in err


def test_sweep_jsonl_format(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code, _, _ = run_cli(capsys, *sweep_args(out, "--format", "jsonl"))
    assert code == 0
    lines = out.read_text().splitlines()
    kinds = [json.loads(ln)["type"] for ln in lines]
    assert kinds.count("trial") == 8 and kinds.count("aggregate") == 4


def test_sweep_from_config_file_with_overrides(tmp_path, capsys):
    cfg = {
        "geometry": {"ula": 5},
        "k": 1,
        "theta_true": [0.3],
        "source": {"powers": [1.0]},
        "trials": 50,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", str(path), "--out", str(out),
        "--trials", "2", "--snr", "20", "--estimators", "sml",
    )
    assert code == 0
    rows = read_csv(out)
    # 1 snr x 2 trials x 1 estimator x 1 angle + 1 aggregate
    assert len(rows) == 3
    assert {r[1] for r in rows} == {"sml"}


def test_sweep_of_the_bundled_spec_as_a_config_file_is_the_plain_sweep(tmp_path, capsys):
    path = tmp_path / "bundled.json"
    path.write_text(json.dumps(benchmark_spec()))
    flags = ("--seed", "3", "--trials", "2", "--snr", "0,20", "--estimators", "music,dmlo")
    plain, from_file = tmp_path / "plain.csv", tmp_path / "file.csv"
    assert run_cli(capsys, "sweep", "--out", str(plain), *flags)[0] == 0
    assert run_cli(capsys, "sweep", "--config", str(path), "--out", str(from_file), *flags)[0] == 0
    assert from_file.read_bytes() == plain.read_bytes()
    assert len(read_csv(plain)) == 2 * 2 * 2 * 3 + 2 * 2


def test_sweep_bad_config_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"ula": 5}}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path), "--out", "x.csv")
    assert code == 1 and "missing" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
