"""Command line interface: exit codes, schema, determinism, cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vosa.cli import (EXIT_ERROR, EXIT_OK, EXIT_UNCERTIFIED, SCHEMA, main)


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_zhu_certified_sigma_l2(tmp_path):
    code, data = run(tmp_path, "zhu", "--l", "2", "--twist", "sigma",
                     "--max-weight", "5/2", "--certify")
    assert code == EXIT_OK
    assert data["schema"] == SCHEMA
    assert data["dim"] == 4
    assert data["blocks"] == [2]
    assert data["certified"]


def test_zhu_uncertified_without_flag(tmp_path):
    code, data = run(tmp_path, "zhu", "--l", "1", "--twist", "sigma",
                     "--max-weight", "2")
    assert code == EXIT_OK
    assert data["dim"] == 2 and not data["certified"]


def test_verify_virasoro(tmp_path):
    code, data = run(tmp_path, "verify", "--suite", "virasoro", "--l", "3")
    assert code == EXIT_OK
    assert data["details"]["central_charge"] == "3/2"


@pytest.mark.parametrize("suite", ["jacobi", "zhu-axioms", "lie", "omega"])
def test_verify_suites_pass(tmp_path, suite):
    code, data = run(tmp_path, "verify", "--suite", suite, "--l", "2",
                     "--twist", "sigma", "--max-weight", "5/2")
    assert code == EXIT_OK
    assert data["ok"]


@pytest.mark.parametrize("suite", ["zhu-axioms", "lie"])
@pytest.mark.parametrize("argv", [
    ["--l", "2", "--max-weight", "1/2"], ["--l", "3", "--max-weight", "1/2"],
    ["--l", "3", "--max-weight", "1"]])
def test_suite_on_a_truncation_that_does_not_close(tmp_path, suite, argv):
    # a class escapes the truncation: reported, not an error
    code, data = run(tmp_path, "verify", "--suite", suite, *argv)
    assert code == EXIT_UNCERTIFIED and data["ok"] is False
    assert "escapes the truncation" in data["details"]["failure"]


def test_escaping_class_is_named_by_rational_mode_labels(tmp_path):
    code, data = run(tmp_path, "verify", "--suite", "zhu-axioms",
                     "--l", "2", "--max-weight", "1/2")
    failure = data["details"]["failure"]
    assert "escapes the truncation" in failure
    assert "Fraction(" not in failure and "-1/2" in failure


def test_zhu_axioms_unit_is_two_sided(tmp_path, monkeypatch):
    # break only x * 1 = x (for x != 1); 1 * x = x still holds
    from vosa.zhu import ZhuAlgebra

    plain = ZhuAlgebra.star_coords

    def star_coords(self, i, j):
        if self.basis[j] == () and self.basis[i] != ():
            return {}
        return plain(self, i, j)

    monkeypatch.setattr(ZhuAlgebra, "star_coords", star_coords)
    code, data = run(tmp_path, "verify", "--suite", "zhu-axioms", "--l", "2")
    assert code == EXIT_UNCERTIFIED
    assert data["details"]["unit"] is False


def test_readme_cli_examples_run(monkeypatch, capsys):
    # the documented commands of the README's CLI block exit 0 with a
    # report, so they cannot drift from the program
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("vosa ")]
    assert len(commands) >= 5
    monkeypatch.delenv("VOSA_CACHE_DIR", raising=False)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        assert json.loads(capsys.readouterr().out)["schema"] == SCHEMA


@pytest.mark.parametrize("argv,pairs", [
    (["--l", "1"], 6), (["--l", "2"], 34), (["--l", "3"], 129),
    (["--twist", "tau"], 34)])
def test_omega_suite_checks_every_ideal_pair(tmp_path, argv, pairs):
    # every v of weight <= 1 with a nonzero u circ v, homogeneous or not,
    # not only the first one for each u
    code, data = run(tmp_path, "verify", "--suite", "omega", *argv,
                     "--max-weight", "5/2")
    assert code == EXIT_OK and data["ok"]
    assert data["details"]["action"]["ideal_samples"] == pairs


def test_basis_graded_dims(tmp_path):
    code, data = run(tmp_path, "basis", "--l", "2", "--twist", "id",
                     "--max-weight", "2")
    assert code == EXIT_OK
    assert data["graded_dims"] == {"0": 1, "1/2": 2, "1": 1,
                                   "3/2": 2, "2": 4}


def test_omega_command(tmp_path):
    code, data = run(tmp_path, "omega", "--l", "2", "--twist", "sigma",
                     "--max-weight", "1")
    assert code == EXIT_OK
    assert data["dim"] == 2 and data["lowest_only"]


def test_induce_command(tmp_path):
    code, data = run(tmp_path, "induce", "--l", "2", "--twist", "sigma",
                     "--max-weight", "5/2", "--depth", "3/2")
    assert code == EXIT_OK
    assert data["certified"] and data["omega_is_seed"]
    assert data["graded_dims"]["0"] == 2


@pytest.mark.parametrize("seed", ["omega", "regular"])
def test_induce_refuses_an_uncertified_algebra(tmp_path, seed):
    # sigma4 at cutoff 3/2 does not stabilize (dim 15 there, 16 in truth)
    code, data = run(tmp_path, "induce", "--l", "4", "--max-weight", "3/2",
                     "--seed", seed)
    assert code == EXIT_UNCERTIFIED
    assert data["certified"] is False
    assert data["seed_dim"] is None and data["graded_dims"] is None
    assert data["omega_is_seed"] is None


def test_omega_suite_reports_an_uncertified_algebra(tmp_path):
    code, data = run(tmp_path, "verify", "--suite", "omega", "--l", "3",
                     "--max-weight", "1")
    assert code == EXIT_UNCERTIFIED
    assert data["ok"] is False and data["details"]["certified"] is False


def test_error_exit_code(tmp_path, capsys):
    code = main(["zhu", "--l", "3", "--twist", "tau"])
    assert code == EXIT_ERROR


def test_output_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        main(["zhu", "--l", "1", "--twist", "sigma", "--max-weight", "2",
              "--certify", "--output", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    args = ["zhu", "--l", "1", "--twist", "sigma", "--max-weight", "2",
            "--certify", "--cache-dir", str(cache)]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main([*args, "--output", str(out1)]) == EXIT_OK
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    assert main([*args, "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    # no stray temp files survive the atomic rename
    assert not list(cache.glob("*.tmp"))


def test_cache_env_var(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("VOSA_CACHE_DIR", str(cache))
    out = tmp_path / "r.json"
    assert main(["zhu", "--l", "1", "--twist", "sigma", "--max-weight",
                 "2", "--output", str(out)]) == EXIT_OK
    assert list(cache.glob("*.json"))


def test_config_file_defaults_and_flag_priority(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"l": 3, "twist": "sigma",
                                "max-weight": "2"}))
    code, data = run(tmp_path, "zhu", "--config", str(conf), "--certify")
    assert code == EXIT_OK and data["l"] == 3 and data["dim"] == 8
    code, data = run(tmp_path, "zhu", "--config", str(conf), "--l", "1",
                     "--certify")
    assert code == EXIT_OK and data["l"] == 1 and data["dim"] == 2


def test_abbreviated_flag_beats_config(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"max-weight": "2"}))
    code, data = run(tmp_path, "basis", "--config", str(conf), "--max", "1")
    assert code == EXIT_OK
    assert data["graded_dims"] == {"0": 1, "1/2": 2, "1": 1}


@pytest.mark.parametrize("command,conf", [
    ("zhu", {"l": "3"}),
    ("zhu", {"l": 2.5}),
    ("zhu", [1, 2]),
    ("induce", {"seed": "bogus"}),
    ("basis", {"format": "xml"}),
    ("zhu", {"max-weight": "1/0"}),
    ("zhu", {"certify": 1}),
], ids=["string-int", "float-int", "not-an-object", "seed-choice",
        "format-choice", "zero-denominator", "switch"])
def test_bad_config_value_is_an_error(tmp_path, capsys, command, conf):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    assert main([command, "--config", str(path)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_values_take_flag_types(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"l": 2, "max-weight": 2.5, "certify": True,
                                "format": "json", "seed": "regular"}))
    code, data = run(tmp_path, "zhu", "--config", str(conf))
    assert code == EXIT_OK and data["dim"] == 4 and data["certified"]


def test_table_format(tmp_path):
    out = tmp_path / "t.txt"
    main(["basis", "--l", "1", "--twist", "sigma", "--max-weight", "1",
          "--format", "table", "--output", str(out)])
    text = out.read_text()
    assert "graded_dims" in text and "schema" not in json.dumps({})


def _zhu_stdout(capsys, *argv):
    code = main(["zhu", *argv])
    return code, capsys.readouterr().out


def test_plain_zhu_same_exit_code_cold_and_warm(tmp_path, capsys):
    args = ["--l", "1", "--twist", "sigma", "--max-weight", "2",
            "--cache-dir", str(tmp_path / "cache")]
    cold = _zhu_stdout(capsys, *args)
    warm = _zhu_stdout(capsys, *args)
    assert cold == warm
    assert cold[0] == EXIT_OK


def test_uncertified_exit_code_cold_and_warm(tmp_path, capsys):
    args = ["--l", "2", "--twist", "sigma", "--max-weight", "0",
            "--certify", "--cache-dir", str(tmp_path / "cache")]
    cold = _zhu_stdout(capsys, *args)
    warm = _zhu_stdout(capsys, *args)
    assert cold == warm
    assert cold[0] == EXIT_UNCERTIFIED


@pytest.mark.parametrize("argv, code, dim, dim_lower", [
    (["--l", "3", "--max-weight", "1", "--certify"], EXIT_UNCERTIFIED, 7, 7),
    (["--l", "2", "--max-weight", "1/2", "--certify"], EXIT_UNCERTIFIED,
     3, 3),
    (["--l", "3", "--max-weight", "1"], EXIT_OK, 7, None),
], ids=["sigma3-certify", "sigma2-certify", "sigma3-plain"])
def test_truncation_without_blocks_is_reported(tmp_path, capsys, argv, code,
                                               dim, dim_lower):
    # a class escapes these truncations, so there is no block profile;
    # the run still reports its dimensions with the documented exit code
    args = [*argv, "--cache-dir", str(tmp_path / "cache")]
    cold = _zhu_stdout(capsys, *args)
    warm = _zhu_stdout(capsys, *args)
    assert cold == warm
    assert cold[0] == code
    data = json.loads(cold[1])
    assert data["dim"] == dim and data.get("dim_lower") == dim_lower
    assert data["certified"] is False
    assert [data["blocks"], data["center_dim"], data["radical_dim"]] == \
        [None, None, None]


def test_plain_zhu_reports_blocks(tmp_path):
    code, data = run(tmp_path, "zhu", "--l", "3")
    assert code == EXIT_OK
    assert data["dim"] == 8 and data["blocks"] == [2, 2]


def test_certified_profile_failure_is_an_error(capsys, monkeypatch):
    import vosa.zhu

    def fail(alg):
        raise ValueError("class escapes the truncation")

    monkeypatch.setattr(vosa.zhu, "block_profile", fail)
    assert main(["zhu", "--l", "1", "--max-weight", "2",
                 "--certify"]) == EXIT_ERROR
    assert capsys.readouterr().err == \
        "error: class escapes the truncation\n"


def test_negative_depth_rejected(capsys):
    assert main(["induce", "--depth=-1"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: --depth") and "Traceback" not in err


@pytest.mark.parametrize("damage", ["truncate", "schema", "fields"])
def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys, damage):
    cache = tmp_path / "cache"
    args = ["--l", "1", "--twist", "sigma", "--max-weight", "2",
            "--cache-dir", str(cache)]
    cold = _zhu_stdout(capsys, *args)
    (entry,) = cache.glob("*.json")
    text = entry.read_text()
    if damage == "truncate":
        entry.write_text(text[:len(text) // 2])
    elif damage == "schema":
        entry.write_text(text.replace(SCHEMA, "vosa-zhu/0"))
    else:
        # a well-formed entry stripped to the fields that used to suffice
        entry.write_text(json.dumps({"schema": SCHEMA, "certified": True}))
    assert _zhu_stdout(capsys, *args) == cold
    # the entry was recomputed and rewritten whole
    assert json.loads(entry.read_text())["schema"] == SCHEMA
    assert _zhu_stdout(capsys, *args) == cold


@pytest.mark.parametrize("field,value,argv", [
    ("dim", "many", ["--l", "2"]),
    # an uncertified run exits 2: a truthy string must not turn that to 0
    ("certified", "no", ["--l", "3", "--max-weight", "1", "--certify"]),
    ("blocks", "x", ["--l", "2"]),
], ids=["dim", "certified", "blocks"])
def test_mistyped_cache_entry_is_a_miss(tmp_path, capsys, field, value,
                                        argv):
    cache = tmp_path / "cache"
    args = [*argv, "--cache-dir", str(cache)]
    cold = _zhu_stdout(capsys, *args)
    (entry,) = cache.glob("*.json")
    written = entry.read_bytes()
    data = json.loads(written)
    data[field] = value
    entry.write_text(json.dumps(data, sort_keys=True))
    assert _zhu_stdout(capsys, *args) == cold
    # the entry was recomputed and rewritten as the cold run wrote it
    assert entry.read_bytes() == written
    assert _zhu_stdout(capsys, *args) == cold


@pytest.mark.parametrize("certify", [False, True],
                         ids=["plain", "certify"])
def test_warm_run_is_a_cache_hit(tmp_path, capsys, monkeypatch, certify):
    import vosa.cli

    args = ["--l", "1", "--max-weight", "2", "--cache-dir",
            str(tmp_path / "cache")] + (["--certify"] if certify else [])
    cold = _zhu_stdout(capsys, *args)

    def recompute(ctx, args):
        raise AssertionError("the cached report was recomputed")

    monkeypatch.setattr(vosa.cli, "_zhu_report", recompute)
    assert _zhu_stdout(capsys, *args) == cold


@pytest.mark.parametrize("argv,says", [
    (["zhu", "--l", "0"], ""), (["zhu", "--max-weight", "-1"], ""),
    (["zhu", "--margin", "0"], ""), (["zhu", "--l", "x"], ""),
    (["zhu", "--twist", "foo"], ""),
    (["zhu", "--max-weight", "1/0"], "zero denominator in '1/0'"),
    (["zhu", "--margin", "x"], "not a rational number: 'x'"),
    (["induce", "--depth", "x"], "not a rational number: 'x'"),
    (["zhu", "--config", "CONF"], 'max-weight: invalid value "1/0"'),
    ([], "")],
    ids=["l", "max-weight", "margin", "l-malformed", "twist-unknown",
         "max-weight-malformed", "margin-malformed", "depth-malformed",
         "config-zero-denominator", "no-subcommand"])
def test_out_of_range_input_rejected(tmp_path, capsys, argv, says):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"max-weight": "1/0"}))
    argv = [str(conf) if a == "CONF" else a for a in argv]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and "usage:" not in err
    # the message names the value's fault, not a private parser function
    assert says in err and "_frac" not in err


@pytest.mark.parametrize("argv", [["--version"], ["zhu", "--help"]],
                         ids=["version", "help"])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_engine_failure_is_a_clean_error(tmp_path, capsys, monkeypatch,
                                         exc):
    import vosa.zhu

    def fail(alg):
        raise exc("no separating central element found")

    monkeypatch.setattr(vosa.zhu, "block_profile", fail)
    assert main(["zhu", "--l", "1", "--max-weight", "2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: no separating central element found\n"


SYMPY_FREE = """
import sys
sys.modules["sympy"] = None  # any import of sympy now fails
sys.path.insert(0, sys.argv[1])
from vosa.cli import main
sys.exit(main(["zhu", "--certify", "--l", "2"]))
"""


def test_zhu_certify_runs_without_sympy():
    # the package has no runtime dependencies; keep it that way
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "VOSA_CACHE_DIR"}
    proc = subprocess.run([sys.executable, "-c", SYMPY_FREE, str(src)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["blocks"] == [2]
