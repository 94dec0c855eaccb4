import decimal
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import altgen
from altgen import certify, graphs, ring, spectral, walks
from altgen.cli import (SUITES, Report, _el3_to_json, desk_base, main,
                        write_gens_json)
from altgen.embeddings import GeneratingSet, build_SN
from altgen.errors import require


def run_cli(args, tmp_path, name):
    report_path = tmp_path / f"{name}.json"
    code = main(args + ["--report", str(report_path)])
    with open(report_path) as fh:
        return code, json.load(fh)


def test_certify_command(tmp_path, capsys):
    code, report = run_cli(["certify"], tmp_path, "certify")
    capsys.readouterr()
    assert code == 0
    assert report["schema"] == "altgen-report-1"
    assert all(r["verdict"] in ("pass", "reported-only") for r in report["records"])
    names = [r["name"] for r in report["records"]]
    assert names == sorted(names)


def _widen_first_interval(text):
    data = json.loads(text)
    data["nodes"][0]["interval"][1] += "1"
    return json.dumps(data)


@pytest.mark.parametrize("corrupt", [
    _widen_first_interval,
    lambda text: text[:-40],
    # an empty tree revalidates on its own
    lambda text: json.dumps({**json.loads(text), "nodes": []}),
], ids=["interval", "truncated", "no-nodes"])
def test_certify_out_revalidates_the_file_it_wrote(corrupt, tmp_path, monkeypatch, capsys):
    tree = tmp_path / "tree.json"
    code, report = run_cli(["certify", "--out", str(tree)], tmp_path, "valid")
    recs = {r["name"]: r for r in report["records"]}
    assert code == 0 and recs["tree-json"]["verdict"] == "pass"
    write = certify.tree_to_json
    monkeypatch.setattr(certify, "tree_to_json", lambda nodes: corrupt(write(nodes)))
    code, report = run_cli(["certify", "--out", str(tree)], tmp_path, "corrupted")
    capsys.readouterr()
    assert code == 1
    failed = [r for r in report["records"] if r["verdict"] == "fail"]
    assert [(r["name"], r["computed"]) for r in failed] == [("tree-json", str(tree))]


def test_construct_desk(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    code, report = run_cli(["construct", "--s", "1", "--d", "2",
                            "--out", str(gens)], tmp_path, "construct")
    capsys.readouterr()
    assert code == 0
    recs = {r["name"]: r for r in report["records"]}
    assert recs["generator-count"]["computed"] == 72
    data = json.loads(gens.read_text())
    assert data["count"] == 72 and data["K"] == 7
    assert len(data["involution_set"]) == 36


def test_construct_checks_evenness_once(tmp_path, monkeypatch, capsys):
    calls = []
    all_even = GeneratingSet.all_even

    def counted(self):
        calls.append(self)
        return all_even(self)

    monkeypatch.setattr(GeneratingSet, "all_even", counted)
    code, report = run_cli(["construct", "--s", "1", "--d", "2"], tmp_path, "even")
    capsys.readouterr()
    assert code == 0 and len(calls) == 1
    recs = {r["name"]: r for r in report["records"]}
    assert recs["all-even"]["computed"] is True and recs["all-even"]["verdict"] == "pass"


def test_gens_json_is_the_whole_document_dumped_at_once(tmp_path):
    # reference: the file json.dump writes from the list form
    sn = build_SN(1, 2)
    path = tmp_path / "gens.json"
    write_gens_json(sn, path)
    data = json.loads(path.read_text())
    data["involution_set"] = [_el3_to_json(el) for el in sn.el3_elements]
    assert path.read_text() == json.dumps(data, indent=1, sort_keys=True)


def test_gens_json_streams_the_involutions(tmp_path):
    # all of S_N(1, 5)'s involutions held at once peak near 6 MB here; built
    # one at a time, with only their hex entries kept for the one dump, 1.5 MB
    sn = build_SN(1, 5)
    tracemalloc.start()
    try:
        write_gens_json(sn, tmp_path / "gens.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_gens_json_bytes_are_pinned(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    assert main(["construct", "--s", "1", "--d", "3", "--out", str(gens)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(gens.read_bytes()).hexdigest() == (
        "0b4184e7f1395e9c2165e57abf9a6e1d68f0b59a11087de87fd5aa59760f0205")


def test_construct_certified_shape(tmp_path, capsys):
    code, report = run_cli(["construct", "--s", "7"], tmp_path, "c7")
    capsys.readouterr()
    assert code == 0
    recs = {r["name"]: r for r in report["records"]}
    assert recs["generator-count"]["computed"] == 216
    assert recs["regime"]["computed"] == "certified-shape"


def test_construct_general(tmp_path, capsys):
    code, report = run_cli(["construct-general", "--n", "100", "--base-m", "49"],
                           tmp_path, "general")
    capsys.readouterr()
    assert code == 0
    recs = {r["name"]: r for r in report["records"]}
    assert recs["window-count"]["computed"] <= 9


@pytest.mark.parametrize("sym, order", [(False, 2520), (True, 5040)])
def test_construct_general_below_eight_points(sym, order, tmp_path, capsys):
    # below 8 points the order comes from a stabilizer chain, not a certificate
    code, report = run_cli(["construct-general", "--n", "7", "--base-m", "5"]
                           + (["--sym"] if sym else []), tmp_path, "n7")
    capsys.readouterr()
    assert code == 0
    rec = {r["name"]: r for r in report["records"]}["generated-order"]
    assert (rec["computed"], rec["verdict"]) == (str(order), "pass")


def test_report_determinism(tmp_path, capsys):
    _, r1 = run_cli(["verify", "--suite", "certify,gem", "--seed", "5",
                     "--samples", "20"], tmp_path, "a")
    _, r2 = run_cli(["verify", "--suite", "certify,gem", "--seed", "5",
                     "--samples", "20"], tmp_path, "b")
    capsys.readouterr()
    r1.pop("timing_seconds")
    r2.pop("timing_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_exit_code_on_config_error(capsys):
    code = main(["construct-general", "--n", "500", "--base-m", "10"])
    capsys.readouterr()
    assert code == 2
    # past the table limit the generating set is shape-only
    assert main(["schreier", "--s", "7", "--d", "6"]) == 2
    assert "shape-only generating set" in capsys.readouterr().err


def test_factor_commands(tmp_path, capsys):
    code, report = run_cli(["factor", "gem", "--s", "1", "--m", "2",
                            "--count", "10"], tmp_path, "gem")
    assert code == 0
    code, report = run_cli(["factor", "blocks", "--n", "50", "--base-m", "10",
                            "--count", "5"], tmp_path, "blocks")
    assert code == 0
    code, report = run_cli(["factor", "butterfly", "--rows", "3", "--cols", "4",
                            "--count", "5"], tmp_path, "bfly")
    capsys.readouterr()
    assert code == 0


def test_verify_walk_suite(tmp_path, capsys):
    code, report = run_cli(["verify", "--suite", "walk", "--s", "1", "--d", "2",
                            "--samples", "500"], tmp_path, "walk")
    capsys.readouterr()
    assert code == 0


def test_verify_words_suite(tmp_path, capsys):
    code, report = run_cli(["verify", "--suite", "words", "--trials", "1"],
                           tmp_path, "words")
    capsys.readouterr()
    assert code == 0
    recs = {r["name"]: r for r in report["records"]}
    assert recs["words.route-exact"]["verdict"] == "pass"


def test_verify_gem_factors_for_every_pair_below_four_samples(tmp_path, monkeypatch,
                                                            capsys):
    # a quarter of --samples per (s, m) pair, rounded up: 3 samples still
    # factor one element for each of the four pairs
    calls = []
    gem_factor = ring.gem_factor

    def counted(el):
        calls.append(el)
        return gem_factor(el)

    monkeypatch.setattr(ring, "gem_factor", counted)
    code, report = run_cli(["verify", "--suite", "gem", "--samples", "3"],
                           tmp_path, "gem3")
    capsys.readouterr()
    assert code == 0 and len(calls) == 4
    recs = {r["name"]: r for r in report["records"]}
    assert recs["gem.letters"]["computed"] > 0


@pytest.mark.parametrize("argv, calls", [(["verify", "--suite", "gem"], 4),
                                         (["factor", "gem", "--count", "100"], 1)])
def test_gem_samples_are_factored_as_one_stack_per_pair(argv, calls, tmp_path, monkeypatch,
                                                       capsys):
    # the default 200 samples are four (s, m) pairs of 50, and factor gem has one pair
    seen = []
    gem_factor = ring.gem_factor

    def counted(el):
        seen.append(el)
        return gem_factor(el)

    monkeypatch.setattr(ring, "gem_factor", counted)
    code, report = run_cli(argv, tmp_path, "stacked")
    capsys.readouterr()
    assert code == 0 and len(seen) == calls
    assert sum(el.m for el in seen) == (50 * (1 + 2 + 1 + 2) if calls == 4 else 100 * 2)


@pytest.mark.parametrize("command", [["verify", "--suite", "gem", "--samples"],
                                     ["verify", "--suite", "gem", "--trials"],
                                     ["factor", "gem", "--count"],
                                     ["factor", "word47", "--trials"]],
                         ids=["--samples", "--trials", "factor-gem---count",
                              "factor-word47---trials"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_counts_below_one_are_usage_errors(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + [value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--s", "0", "must be at least 1"),
    ("--d", "0", "must be at least 1"),
    ("--h", "0", "must be at least 1"),
    ("--n", "5", "--n must be at least 8"),
], ids=["s", "d", "h", "n"])
def test_verify_cube_options_out_of_range_are_usage_errors(option, value, message, capsys):
    # each used to fall back to a default, or to check nothing, while the
    # report echoed the value given
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "walk,characters", option, value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_spectral_without_a_graph_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--d", "2"])
    assert exc.value.code == 2
    assert "--s or --edges" in capsys.readouterr().err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "certify,certfy"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "certfy" in err and "characters" in err and "spectral" in err


def test_spectral_command_on_edges(tmp_path, capsys):
    edges = tmp_path / "cycle.txt"
    lines = ["# vertices 8 degree 2"] + [f"{i} {(i + 1) % 8}" for i in range(8)]
    edges.write_text("\n".join(lines) + "\n")
    code, report = run_cli(["spectral", "--edges", str(edges),
                            "--method", "dense"], tmp_path, "spec")
    capsys.readouterr()
    assert code == 0


def test_desk_base_generates():
    import math
    from altgen.schreier_sims import group_order
    for m in (5, 8, 11):
        assert group_order(desk_base(m)) == math.factorial(m) // 2


def test_console_entry_point():
    # the child finds the package the tests import, installed or not
    src = str(Path(altgen.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "altgen.cli", "--help"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0
    for name in ("construct", "construct-general", "schreier", "spectral",
                 "mixing", "characters", "certify", "factor", "verify"):
        assert name in out.stdout


def test_gem_multiply_back_survives_optimize(tmp_path):
    # python -O strips assert statements; a GEM word that fails its
    # multiply-back must still fail `verify --suite gem`
    report_path = tmp_path / "gem.json"
    script = textwrap.dedent(f"""
        import sys
        from altgen import cli, ring
        ring.GemWord.verify = lambda self: False
        code = cli.main(["verify", "--suite", "gem", "--samples", "4",
                         "--report", {str(report_path)!r}])
        sys.exit(code if sys.flags.optimize else 3)
    """)
    src = str(Path(altgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert "multiply-back mismatch" in done.stderr
    records = json.loads(report_path.read_text())["records"]
    assert [(r["name"], r["verdict"]) for r in records] == [("verification-error", "fail")]


def _gem_words_fail_multiply_back(monkeypatch):
    monkeypatch.setattr(ring.GemWord, "verify", lambda self: False)
    return "multiply-back mismatch in GEM factorization"


def _decay_chain_fails(monkeypatch):
    def refuse():
        require(False, "decay chain refused")
    monkeypatch.setattr(certify, "derive_decay_chain", refuse)
    return "decay chain refused"


@pytest.mark.parametrize("argv, breach, kept", [
    pytest.param(["factor", "gem", "--count", "2"], _gem_words_fail_multiply_back, None,
                 id="factor-gem"),
    pytest.param(["verify", "--suite", "gem", "--samples", "4"],
                 _gem_words_fail_multiply_back, None, id="verify-gem"),
    pytest.param(["verify", "--suite", "certify"], _decay_chain_fails,
                 "certify.constant.", id="verify-certify"),
])
def test_failed_require_writes_a_fail_record(monkeypatch, tmp_path, capsys,
                                             argv, breach, kept):
    # a VerificationError ends the run as a fail record; the records made
    # before it stay, under their suite's prefix
    message = breach(monkeypatch)
    code, report = run_cli(argv, tmp_path, "failed")
    assert code == 1
    assert f"check failed: {message}" in capsys.readouterr().err
    failed = [r for r in report["records"] if r["verdict"] == "fail"]
    assert failed == [{"name": "verification-error",
                       "citation": "a guarantee checked by require failed",
                       "computed": message, "bound": None, "verdict": "fail"}]
    others = [r["name"] for r in report["records"] if r["verdict"] != "fail"]
    if kept is None:
        assert others == []
    else:
        assert others and all(name.startswith(kept) for name in others)


@pytest.mark.parametrize("argv, module, budget, message", [
    pytest.param(["spectral", "--s", "1", "--d", "2", "--method", "power", "--tol", "0"],
                 spectral, "POWER_BUDGET", "power iteration did not converge within 5 iterations",
                 id="spectral-power"),
    pytest.param(["mixing", "--s", "1", "--d", "2"], walks, "MIXING_STEPS",
                 "walk did not mix within 5 steps (tv=", id="mixing"),
])
def test_an_exhausted_iteration_budget_writes_a_fail_record(argv, module, budget, message,
                                                            monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(module, budget, 5)
    code, report = run_cli(argv, tmp_path, "budget")
    assert code == 1
    assert f"check failed: {message}" in capsys.readouterr().err
    [record] = report["records"]
    assert (record["name"], record["verdict"]) == ("verification-error", "fail")
    assert record["computed"].startswith(message)


@pytest.mark.parametrize("s, K", [("1", 7), ("2", 63)])
def test_word47_without_a_standard_cycle_is_a_configuration_error(s, K, capsys):
    # K^(d-1) / (3 ln K) is below K at d = 2, so no cycle length 1 + a(K-1) has a >= 1
    assert main(["factor", "word47", "--s", s, "--d", "2"]) == 2
    assert f"no standard cycle at K = {K}, d = 2" in capsys.readouterr().err


def test_check_verdict_comes_from_ok_alone():
    report = Report(config={})
    for name, ok in [("reported", None), ("passed", True), ("failed", False)]:
        report.check(name, "citation", 1, ok=ok)
    assert [r.verdict for r in report.records] == ["reported-only", "pass", "fail"]


def test_oversized_axis_blocks_exit_as_a_configuration_error(monkeypatch, capsys):
    # S_N(1, 5)'s axis operator is estimated at about 7.3 MB
    monkeypatch.setattr(graphs, "AXIS_BLOCK_BUDGET", 10**6)
    assert main(["spectral", "--s", "1", "--d", "5"]) == 2
    assert "over the budget of 1000000 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("suite, seed, options, twin", [
    pytest.param("certify", "0", [], ["certify"], id="certify-seed0"),
    pytest.param("certify", "7", [], ["certify"], id="certify-seed7"),
    pytest.param("blocks", "0", [], ["factor", "blocks", "--count", "25"],
                 id="blocks-seed0"),
    pytest.param("blocks", "7", [], ["factor", "blocks", "--count", "25"],
                 id="blocks-seed7"),
    pytest.param("blocks", "0", ["--trials", "5"], ["factor", "blocks", "--count", "5"],
                 id="blocks-trials5"),
    pytest.param("spectral", "0", [], ["spectral", "--s", "1", "--d", "2"],
                 id="spectral-seed0"),
    pytest.param("spectral", "7", [], ["spectral", "--s", "1", "--d", "2"],
                 id="spectral-seed7"),
    pytest.param("spectral", "0", ["--s", "1", "--d", "3"],
                 ["spectral", "--s", "1", "--d", "3"], id="spectral-d3"),
])
def test_verify_suite_is_its_subcommand(suite, seed, options, twin, tmp_path, capsys):
    # the suite keeps no copy of the check: its records are the subcommand's,
    # each name prefixed by the suite
    _, verified = run_cli(["verify", "--suite", suite, "--seed", seed] + options,
                          tmp_path, "verify")
    _, direct = run_cli(twin + ["--seed", seed], tmp_path, "direct")
    capsys.readouterr()
    assert verified["records"] == [dict(r, name=f"{suite}.{r['name']}")
                                   for r in direct["records"]]


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "all.json"
    assert main(["verify", "--suite", "all", "--seed", "3", "--report", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("suite", SUITES)
def test_verify_all_runs_each_suite_as_it_runs_alone(verify_all, suite, tmp_path, capsys):
    _, alone = run_cli(["verify", "--suite", suite, "--seed", "3"], tmp_path, suite)
    capsys.readouterr()
    assert alone["records"] and all(r["name"].startswith(f"{suite}.")
                                    for r in alone["records"])
    assert [r for r in verify_all["records"]
            if r["name"].startswith(f"{suite}.")] == alone["records"]


@pytest.mark.parametrize("sym", [False, True])
def test_construct_general_proves_the_order_past_2000_points(tmp_path, capsys, sym):
    # the order has over 4300 digits, which str() of an int refuses
    code, report = run_cli(["construct-general", "--n", "2001", "--base-m", "64"]
                           + (["--sym"] if sym else []), tmp_path, "big")
    capsys.readouterr()
    assert code == 0
    rec = {r["name"]: r for r in report["records"]}["generated-order"]
    assert rec["verdict"] == "pass"
    assert rec["computed"] == rec["bound"]
    assert int(decimal.Decimal(rec["bound"])) == math.factorial(2001) // (1 if sym else 2)


def test_construct_general_proves_the_order_at_its_seed(tmp_path, monkeypatch, capsys):
    # the report echoes --seed, so the certificate behind its order must
    # come from that seed
    from altgen import schreier_sims
    seeds = []
    certificate = schreier_sims.jordan_certificate

    def recorded(gens, seed=0):
        seeds.append(seed)
        return certificate(gens, seed)

    monkeypatch.setattr(schreier_sims, "jordan_certificate", recorded)
    code, report = run_cli(["construct-general", "--n", "300", "--base-m", "49",
                            "--seed", "5"], tmp_path, "seeded")
    capsys.readouterr()
    assert code == 0
    assert report["config"]["seed"] == 5
    assert seeds == [5]
