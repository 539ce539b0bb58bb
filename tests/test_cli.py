import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from caexp import configio
from caexp.cli import main


def run(argv):
    return main(argv)


def test_simulate_zero_steps_echoes_input(tmp_path, capsys):
    src = tmp_path / "in.cfg"
    src.write_text("lattice=z q=6 quiescent=0\n0\t3\n2\t1\n")
    out = tmp_path / "out"
    code = run(["simulate", "--rule", "mult:3,2", "--init", f"file:{src}",
                "--steps", "0", "--out", str(out)])
    assert code == 0
    final = configio.load(out / "final.cfg")
    assert final == configio.load(src)
    assert "status=ok" in capsys.readouterr().out


def test_simulate_render_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(["simulate", "--rule", "psi", "--init", "spot:1,0",
                    "--steps", "25", "--render", "--window", "30",
                    "--out", str(out)])
        assert code == 0
    assert (a / "spacetime.pgm").read_bytes() == (b / "spacetime.pgm").read_bytes()
    assert (a / "spacetime.pgm").read_bytes().startswith(b"P5\n")


def test_simulate_mult_matches_engine(tmp_path):
    import random
    from caexp import engine, presets
    from caexp.config import random_config
    from caexp.lattice import Z
    rng = random.Random(3)
    c = random_config(Z, 6, rng, radius=5, max_cells=5)
    src = tmp_path / "c.cfg"
    configio.save(c, src)
    out = tmp_path / "out"
    code = run(["simulate", "--rule", "mult:3,2", "--init", f"file:{src}",
                "--steps", "100", "--out", str(out)])
    assert code == 0
    expected = engine.iterate(presets.mult(3, 2), c, 100)
    assert configio.load(out / "final.cfg") == expected


def test_simulate_z2_frames(tmp_path):
    out = tmp_path / "frames"
    code = run(["simulate", "--rule", "vn2", "--init", "spot:1@0,0",
                "--steps", "4", "--render", "--window", "6", "--out", str(out)])
    assert code == 0
    frames = sorted(p for p in os.listdir(out) if p.endswith(".pgm"))
    assert len(frames) == 5


@pytest.mark.parametrize("rule, flags", [
    ("lambda:2", []),                    # free groups are not rendered
    ("vn2", ["--format", "text"]),       # text is for Z strips only
    ("f2", ["--window", "-3"]),
])
def test_simulate_render_is_refused_before_stepping(rule, flags, tmp_path,
                                                    monkeypatch, capsys):
    # a render simulate cannot write is refused before the orbit is stepped
    # and before final.cfg is written
    from caexp import engine

    def no_step(*args):
        raise AssertionError("stepped before the render was checked")
    monkeypatch.setattr(engine, "iterate", no_step)
    out = tmp_path / "out"
    assert run(["simulate", "--rule", rule, "--steps", "10", "--render",
                *flags, "--out", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (out / "final.cfg").exists()


def test_verify_single_claim(capsys):
    assert run(["verify", "--only", "vn-kexp1"]) == 0
    out = capsys.readouterr().out
    assert "claim vn-kexp1: pass" in out
    assert "status=ok" in out


def test_verify_runs_a_repeated_claim_once(capsys):
    # repeats run once, in the order each name first appears
    for only, names in (("vn-kexp1,vn-kexp1", ["vn-kexp1"]),
                        ("vn-kexp1, vn-2exp-witness,vn-kexp1",
                         ["vn-kexp1", "vn-2exp-witness"])):
        assert run(["verify", "--only", only]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines
                if line.startswith("claim ")] == [f"claim {n}" for n in names]
        assert f"claims={len(names)}" in lines


def test_verify_unknown_claim(capsys):
    assert run(["verify", "--only", "not-a-claim"]) == 2


def test_verify_list(capsys):
    assert run(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "tri-null" in out and "psi-relation" in out


def test_check_kexp_certifies_tri2_witness(capsys):
    assert run(["check-kexp", "--rule", "tri2", "--k", "1",
                "--support-radius", "40", "--window", "2", "--tmax", "512"]) == 0
    out = capsys.readouterr().out
    assert "found=true" in out and "certified=true" in out


def test_check_kexp_writes_witness(tmp_path, capsys):
    out = tmp_path / "w"
    code = run(["check-kexp", "--rule", "linear m=4 coeffs=1:2", "--k", "1",
                "--support-radius", "4", "--window", "1", "--tmax", "16",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "found=true" in text
    assert (out / "witness.cfg").exists()


def test_check_kexp_usage_error():
    assert run(["check-kexp", "--rule", "nope", "--k", "1",
                "--support-radius", "2", "--window", "1", "--tmax", "4"]) == 2


def test_check_kexp_negative_tmax_is_usage_error(capsys):
    # kexp_search on the two linear rules, the pair probe on mult:3,2
    for extra in (["vn2"], ["f2"], ["mult:3,2"]):
        assert run(["check-kexp", "--rule", *extra, "--k", "1",
                    "--support-radius", "3", "--window", "1",
                    "--tmax", "-1"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["z2", "--uv", "z=1,0", "kk=3"],
    ["z2", "--uv", "z1,0", "k=3"],
    ["z2", "--uv", "z=1,0", "k=x"],
    ["check-kexp", "--rule", "linear m=2 lattice=free:x coeffs=e:1", "--k", "1",
     "--support-radius", "2", "--window", "1", "--tmax", "4"],
    ["freegroup", "--witness", "z=xa", "sprime=b"],
    ["freegroup", "--witness", "z=", "sprime=b"],
    ["z2", "--null-check", "{tmp}/missing.cfg"],
    ["simulate", "--rule", "f2", "--init", "file:{tmp}/missing.cfg",
     "--out", "{tmp}"],
    ["simulate", "--rule", "f2", "--init", "spot:x", "--out", "{tmp}"],
    ["simulate", "--rule", "psi", "--init", "spot:1,x", "--out", "{tmp}"],
    ["check-kexp", "--rule", "linear m=4 coeffs=1:2", "--k", "1",
     "--support-radius", "4", "--window", "1", "--tmax", "16", "--alpha", "abc"],
    ["check-kexp", "--rule", "linear m=4 coeffs=1:2", "--k", "1",
     "--support-radius", "4", "--window", "1", "--tmax", "16", "--alpha", "1/0"],
    ["check-kexp", "--rule", "f2", "--k", "1", "--support-radius", "2",
     "--window", "-1", "--tmax", "8"],
    ["check-kexp", "--rule", "mult:3,2", "--k", "1", "--support-radius", "2",
     "--window", "-1", "--tmax", "8"],
    # state components outside 0..m_i-1 are refused, not wrapped
    ["simulate", "--rule", "psi", "--init", "spot:4,0", "--out", "{tmp}"],
    ["simulate", "--rule", "psi", "--init", "spot:-1,0", "--out", "{tmp}"],
    ["simulate", "--rule", "layered:2", "--init", "spot:3,0,0", "--out", "{tmp}"],
    # an --out that names a file, not a directory
    ["simulate", "--rule", "f2", "--steps", "3", "--out", "{tmp}/file"],
    ["check-kexp", "--rule", "linear m=4 coeffs=1:2", "--k", "1",
     "--support-radius", "4", "--window", "1", "--tmax", "16",
     "--out", "{tmp}/file"],
    # a coefficient that is not an integer
    ["check-kexp", "--rule", "linear m=3 coeffs=1:x", "--k", "1",
     "--support-radius", "1", "--window", "0", "--tmax", "4"],
    # a negative render window, which drew strips 0 cells wide and 0x0 frames
    ["simulate", "--rule", "f2", "--render", "--window", "-3", "--out", "{tmp}"],
    ["simulate", "--rule", "vn2", "--steps", "4", "--render", "--window", "-3",
     "--out", "{tmp}"],
    # reports whose counts would lie: negative cell updates, zero claims run
    ["bench", "--window", "64", "--steps", "-1"],
    ["verify", "--only", ","],
], ids=" ".join)
def test_malformed_input_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "file").touch()
    assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_check_kexp_empty_search(capsys):
    # k above the box size: no candidate and no table at any horizon
    assert run(["check-kexp", "--rule", "f3", "--k", "6", "--support-radius", "2",
                "--window", "1", "--tmax", "200000"]) == 0
    assert "searched=0" in capsys.readouterr().out


def test_check_kexp_long_decimated_horizon_is_admitted(capsys):
    # through bitgrid this would be 4.2*10^10 word-row steps, over the cap;
    # its decimated spot series counts 4.1*10^7 word reads
    assert run(["check-kexp", "--rule", "vn2", "--k", "1",
                "--support-radius", "0", "--window", "0",
                "--tmax", "20000"]) == 0
    assert "searched=1" in capsys.readouterr().out


def test_pair_probe_counts_before_listing_its_box(monkeypatch, capsys):
    # the pair budget is checked on the box size alone: a 2*10^8-site box is
    # refused, and k above twice a three-site box is an empty search, as it
    # is for kexp_search, without a count per difference size
    from caexp import expansivity

    def no_domain(*args):
        raise AssertionError("size_domain listed before the budget check")
    monkeypatch.setattr(expansivity, "size_domain", no_domain)
    assert run(["check-kexp", "--rule", "mult:3,2", "--k", "1",
                "--support-radius", "100000000", "--window", "1",
                "--tmax", "4"]) == 3
    assert "resource limit" in capsys.readouterr().err
    assert run(["check-kexp", "--rule", "mult:3,2", "--k", "100000",
                "--support-radius", "1", "--window", "1", "--tmax", "4"]) == 0
    assert "searched=0" in capsys.readouterr().out


def test_check_kexp_resource_error():
    assert run(["check-kexp", "--rule", "vn2", "--k", "6",
                "--support-radius", "30", "--window", "1", "--tmax", "4"]) == 3


@pytest.mark.parametrize("rule, message", [
    ("lambda:0", "lambda rule needs n >= 1"),
    ("layered:0", "layer count k must be >= 1"),
    ("mult:1,2", "multiplication rule needs k, k' >= 2"),
    ("mult:3", "bad rule arguments in 'mult:3'"),
    ("mult:3,x", "bad rule argument 'x'"),
    ("linear m=3 coeffs=1:x", "bad coefficient 'x'"),
])
def test_rule_errors_keep_their_message(rule, message, tmp_path, capsys):
    # a constructor's own refusal is not replaced by a generic one
    assert run(["simulate", "--rule", rule, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check-kexp", "--rule", "f3", "--k", "1", "--support-radius", "1",
     "--window", "1", "--tmax", "100000000"],
    ["check-kexp", "--rule", "vn2", "--k", "1", "--support-radius", "1",
     "--window", "1", "--tmax", "100000000"],
    # the candidate count of a modulus near 2^64, before any allocation
    ["check-kexp", "--rule", "linear m=18446744073709551629 coeffs=-1:3,1:5",
     "--k", "2", "--support-radius", "2", "--window", "1", "--tmax", "4"],
    # a 2003^2-offset bitgrid series through t=2000, 64 GB as int64
    ["check-kexp", "--rule", "vn2", "--k", "1", "--support-radius", "1000",
     "--window", "2", "--tmax", "2000"],
    # a decimated spot series of 2.1*10^9 word reads (a 2048-word charge
    # for each of its 10^6 steps), refused before its first step by the
    # cell-step cap rather than by any array
    ["check-kexp", "--rule", "f3", "--k", "1", "--support-radius", "0",
     "--window", "0", "--tmax", "1000000"],
    # an 800 MB one-column series, above the array cap
    ["check-kexp", "--rule", "linear m=3 lattice=z2 coeffs=0,1:1;1,0:1",
     "--k", "1", "--support-radius", "0", "--window", "0",
     "--tmax", "100000000"],
    # the pair probe's box of 2*10^8 + 1 sites is counted, never listed
    ["check-kexp", "--rule", "mult:3,2", "--k", "1",
     "--support-radius", "100000000", "--window", "1", "--tmax", "4"],
    # counts far past the budget, capped within a few steps of the binomial
    # rather than formed, and for the pair probe at its first difference size
    ["check-kexp", "--rule", "f3", "--k", "100000",
     "--support-radius", "100000000", "--window", "1", "--tmax", "4"],
    ["check-kexp", "--rule", "mult:3,2", "--k", "100000",
     "--support-radius", "100000000", "--window", "1", "--tmax", "4"],
    ["bench", "--window", "100000000", "--steps", "1"],
    # bench grids stepped past the word-step cap: 2.7*10^10 and 6.4*10^10
    # word-row steps
    ["bench", "--window", "4096", "--steps", "100000"],
    ["bench", "--window", "64", "--steps", "1000000000"],
    # a decimated early exit of 5 182 word reads a row, past the budget from
    # t=26 534 on, counted before its rows are allocated
    ["z2", "--tri-claim", "--tsim", "30000"],
    # a decimated vn2 spot series of 2.1*10^9 word reads
    ["check-kexp", "--rule", "vn2", "--k", "1", "--support-radius", "0",
     "--window", "0", "--tmax", "1000000"],
    # sparse orbits whose cells are bounded by balls before the first step
    ["check-kexp", "--rule", "mult:3,2", "--k", "1", "--support-radius", "2",
     "--window", "1", "--tmax", "100000000"],
    # a decimated spot series of 2.1*10^10 word reads, refused by the count
    # before its 80 MB series is allocated
    ["check-kexp", "--rule", "linear m=3 lattice=z2 coeffs=0,1:1;1,0:1",
     "--k", "1", "--support-radius", "0", "--window", "0",
     "--tmax", "10000000"],
    # a P orbit (the distance projection) of 2.0*10^12 cell steps,
    # counted before a 2 000 009-node tree is built
    ["freegroup", "--n", "1", "--profile", "8,2000000"],
    # a BallTree of depth 500 004, refused once its level counts pass the
    # node budget
    ["freegroup", "--n", "2", "--profile", "8,1000000"],
    # a P orbit of 5.0*10^9 cell steps, counted before the window is
    # listed
    ["freegroup", "--n", "2", "--witness", "z=2a", "sprime=b",
     "--tmax", "100000"],
    # witness windows B_20 and B_1000000000, refused before the word z is
    # built or the ball listed
    ["freegroup", "--witness", "z=20a", "sprime=b"],
    ["freegroup", "--witness", "z=1000000000a", "sprime=b"],
    # simulated orbits, bounded like every sparse run before the first step:
    # the F_2 spot orbit through the default 64 steps and through 11, the
    # first horizon past the budget (11 balls B_11 of 354 293 words, each
    # charged its length 12), and long Z and Z^2 runs
    ["simulate", "--rule", "lambda:2", "--out", "{tmp}"],
    ["simulate", "--rule", "lambda:2", "--steps", "11", "--out", "{tmp}"],
    ["simulate", "--rule", "f2", "--steps", "1000000", "--out", "{tmp}"],
    ["simulate", "--rule", "upsilon", "--init", "spot:1", "--steps", "100000",
     "--out", "{tmp}"],
    ["simulate", "--rule", "vn2", "--steps", "3000", "--out", "{tmp}"],
    ["simulate", "--rule", "tri2", "--steps", "5000", "--out", "{tmp}"],
    # B_3000 of F_26 holds a count of over 5 000 digits, past what Python
    # formats; the refusal names the charge of a ball capped by the budget
    ["simulate", "--rule", "lambda:26", "--steps", "3000", "--out", "{tmp}"],
], ids=" ".join)
def test_oversized_run_is_refused(argv, tmp_path, capsys):
    # refused at the allocation, not by a numpy memory error or an
    # unbounded support
    assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 3
    err = capsys.readouterr().err
    assert "resource limit" in err and "Traceback" not in err


def test_freegroup_largest_witness_window_is_admitted(capsys):
    # the window B_13 of F_2 holds 3 188 645 nodes, under the 4 000 000-node
    # budget that refuses z=14a and z=20a
    assert run(["freegroup", "--n", "2", "--witness", "z=13a", "sprime=b",
                "--tmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "fg-witness n=2" in out and ": pass" in out
    assert "3188645 window cells" in out


def test_freegroup_commands(capsys):
    code = run(["freegroup", "--n", "2", "--profile", "4,8"])
    assert code == 0
    assert "layer profile" in capsys.readouterr().out
    code = run(["freegroup", "--n", "2", "--witness", "z=3a", "sprime=b",
                "--tmax", "32"])
    assert code == 0
    assert "pass" in capsys.readouterr().out
    # a horizon shorter than the 8-step engine cross-check
    assert run(["freegroup", "--witness", "z=2a", "sprime=b",
                "--tmax", "3"]) == 0
    assert "sparse engine through t=3" in capsys.readouterr().out


def test_z2_commands(tmp_path, capsys):
    assert run(["z2", "--uv", "z=1,0", "k=3"]) == 0
    assert "u_3(1,0) = 01000101" in capsys.readouterr().out
    cfg = tmp_path / "w.cfg"
    cfg.write_text("lattice=z2 q=2 quiescent=0\n-8,4\t1\n8,4\t1\n")
    assert run(["z2", "--null-check", str(cfg), "--window", "3"]) == 0
    assert "True" in capsys.readouterr().out
    assert run(["z2", "--tri-claim", "--tsim", "64"]) == 0


def test_long_tri_claim_matches_the_default_report(capsys):
    # the decimated early exit admits t=20000; only the horizon changes
    reports = []
    for tsim in ("2048", "20000"):
        assert run(["z2", "--tri-claim", "--tsim", tsim]) == 0
        out = capsys.readouterr().out
        reports.append(out[:out.index("wall_seconds=")].replace(tsim, "T"))
    assert reports[0] == reports[1]
    assert "simulated trace null through t=T" in reports[0]


def test_z2_null_check_exit_codes(tmp_path, capsys, monkeypatch):
    # a spot at (1, 0): a radius-200 window is decided cell by cell, and a
    # radius-4000 one (32 008 001 cells) is refused before it is listed
    from caexp.lattice import Z2
    cfg = tmp_path / "spot.cfg"
    cfg.write_text("lattice=z2 q=2 quiescent=0\n1,0\t1\n")
    assert run(["z2", "--null-check", str(cfg), "--window", "200"]) == 0
    assert "window 200: False" in capsys.readouterr().out

    def no_ball(r):
        raise AssertionError("the window of a refused check was listed")
    monkeypatch.setattr(Z2, "origin_ball", no_ball)
    assert run(["z2", "--null-check", str(cfg), "--window", "4000"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_z2_uv_scale_capped_up_front(capsys):
    # refused before any word of 2^40 bits is built
    assert run(["z2", "--uv", "z=100,0", "k=40"]) == 3
    assert "exceeds the cap 2^12" in capsys.readouterr().err


def test_bench_small(capsys):
    code = run(["bench", "--window", "128", "--steps", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cell_updates=131072" in out
    assert "backend=bitgrid-uint64" in out
    # doubling the window quadruples the update count
    run(["bench", "--window", "256", "--steps", "8"])
    assert "cell_updates=524288" in capsys.readouterr().out


def test_check_kexp_writes_and_fronts_a_witness_pair(tmp_path, capsys):
    # the pair probe's witness is a pair of configurations: both are
    # written, and --alpha reads the fronts of the pair itself, whose right
    # front at t=2 is 1, or -1 after the drift 1*2 (d against zero reads 0)
    from caexp import presets
    from caexp.expansivity import directional_fronts
    out = tmp_path / "w"
    assert run(["check-kexp", "--rule", "mult:3,2", "--k", "4",
                "--support-radius", "2", "--window", "0", "--tmax", "2",
                "--alpha", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "artifacts=2" in text
    c, d = (configio.load(out / name)
            for name in ("witness-c.cfg", "witness-d.cfg"))
    assert (c.cells, d.cells) == ({1: 1}, {-2: 1, -1: 1, 2: 4})
    assert c.diff_count(d) == 4
    fr = directional_fronts(presets.mult(3, 2), c, d, 1, 2)
    assert (fr.adj_l[-1], fr.adj_r[-1]) == (-5, -1)
    assert "at t=2: l=-5 r=-1" in text


def test_check_kexp_alpha_flag(capsys):
    code = run(["check-kexp", "--rule", "linear m=4 coeffs=1:2", "--k", "1",
                "--support-radius", "4", "--window", "1", "--tmax", "16",
                "--alpha", "1/2"])
    assert code == 0
    assert "directional alpha=1/2" in capsys.readouterr().out


def test_verify_reports_failures_with_exit_1(capsys):
    from caexp import claims
    from caexp.report import Report

    def failing_claim(seed=0):
        rep = Report("always-fails")
        rep.expect("intentionally false", False, "injected for the exit test")
        return rep

    claims.CLAIMS["test-injected"] = ("injected failing claim", failing_claim)
    try:
        assert run(["verify", "--only", "test-injected"]) == 1
        out = capsys.readouterr().out
        assert "claim test-injected: FAIL" in out
        assert "status=fail" in out
    finally:
        del claims.CLAIMS["test-injected"]


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract: argvs drawn from small pools of flags and
# values, malformed ones included, every one kept cheap to run

_RULES = ["f2", "f3", "psi", "upsilon", "vn2", "tri2", "mult:3,2", "lambda:2",
          "layered:2", "linear m=5 coeffs=1:2,2:3", "linear m=4 coeffs=1:2",
          "linear m=3 lattice=z2 coeffs=0,1:1;1,0:1",
          "linear lattice=z2 m=3 coeffs=0,1:1", "linear m=0 coeffs=1:1",
          "linear m=3 coeffs=1:0", "linear m=2 lattice=z2 coeffs=1:1",
          "linear m=3 coeffs=1:x", "linear m=2 lattice=free:2 coeffs=1:1,a b:1",
          "linear m=3 coeffs=1:1 m=5", "lambda:5", "mult:x", "lambda:0",
          "nope", ""]
_SMALL = ["-1", "0", "1", "2", "x", ""]


def test_linear_rule_specs_round_trip_through_describe(tmp_path):
    # every linear spec of the pool that parses reads back from its own
    # describe(); a Z^2 site holds a comma, so Z^2 entries are joined and
    # split on ";", and a single Z^2 entry is read as one site; a free-group
    # word keeps its spaces
    from caexp import presets
    from caexp.errors import UsageError
    parsed = 0
    for spec in _RULES:
        if not spec.startswith("linear"):
            continue
        try:
            rule = presets.parse_rule(spec)
        except UsageError:
            continue
        again = presets.parse_rule(rule.describe())
        assert (again.lattice, again.m, again.coeffs) == (
            rule.lattice, rule.m, rule.coeffs), spec
        parsed += 1
    assert parsed == 5
    assert presets.parse_rule("linear lattice=z2 m=3 coeffs=0,1:1").coeffs == {
        (0, 1): 1}
    assert run(["simulate", "--rule", "linear lattice=z2 m=3 coeffs=0,1:1",
                "--steps", "2", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, header, message", [
    (["simulate", "--rule", "linear m=3 coeffs=1:1 m=5"], None,
     "repeated key 'm'"),
    (["simulate", "--rule", "linear m=3 coeffs=1:1 foo=2"], None,
     "unknown key 'foo'"),
    (["simulate", "--rule", "linear coeffs=1:1"], None, "missing key 'm'"),
    (["simulate", "--rule", "linear 3 coeffs=1:1"], None, "bad field '3'"),
    (["simulate", "--rule", "f3"], "lattice=z q=3 q=5", "repeated key 'q'"),
    (["simulate", "--rule", "f3"], "lattice=z q=3 qq=3", "unknown key 'qq'"),
    (["simulate", "--rule", "f3"], "lattice=z quiescent=0",
     "missing key 'q'"),
    (["z2", "--uv", "z=1,0", "z=0,1"], None, "repeated key 'z'"),
    (["z2", "--uv", "z=1,0", "kk=3"], None, "unknown key 'kk'"),
    (["freegroup", "--witness", "z=2a", "b"], None, "missing key 'sprime'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_repeated_unknown_and_missing_keys_exit_2(argv, header, message,
                                                  tmp_path, capsys):
    # one KEY=VALUE grammar reads rule specs, file headers and CLI fields
    if header is not None:
        (tmp_path / "h.cfg").write_text(f"{header}\n0\t1\n")
        argv = argv + ["--init", f"file:{tmp_path}/h.cfg"]
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {message}"), err


def test_free_group_final_state_reads_back(tmp_path):
    # on F_5 the letter e is generator 5, so the identity is written 1
    out, again = tmp_path / "out", tmp_path / "again"
    assert run(["simulate", "--rule", "lambda:5", "--steps", "1",
                "--out", str(out)]) == 0
    assert run(["simulate", "--rule", "lambda:5", "--init",
                f"file:{out}/final.cfg", "--steps", "0",
                "--out", str(again)]) == 0
    final = configio.load(again / "final.cfg")
    assert len(final) == 11 and final == configio.load(out / "final.cfg")


@pytest.mark.parametrize("init", ["spot:1@", "file:{tmp}/e.cfg"])
def test_empty_free_group_site_exits_2(init, tmp_path, capsys):
    # the identity is written 1; an empty site is refused, as on Z
    (tmp_path / "e.cfg").write_text("lattice=free:2 q=2\n\t1\n")
    assert run(["simulate", "--rule", "lambda:2", "--init",
                init.replace("{tmp}", str(tmp_path)), "--steps", "0",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: empty free-group site"), err


@pytest.mark.parametrize("spec", ["mult:3,2", "layered:2"])
def test_simulate_rule_line_is_a_spec_rule_accepts(spec, tmp_path, capsys):
    def rule_line(rule):
        assert run(["simulate", "--rule", rule, "--steps", "1",
                    "--out", str(tmp_path)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("rule: "))
        return line[len("rule: "):line.rindex(" radius=")]
    printed = rule_line(spec)
    assert rule_line(printed) == printed


def _flag(name, values):
    return [[name, v] for v in values]


_SUBCOMMANDS = {
    # each: (tokens always given, groups of alternative optional flags);
    # the fixed tokens make a cheap run that does real work (a found witness,
    # a passing report) and a drawn flag overrides a fixed one
    "simulate": (["--out", "{tmp}", "--rule", "f2", "--steps", "8"], [
        _flag("--rule", _RULES),
        _flag("--init", ["spot:1", "spot:2", "spot:1,1", "spot:1@3",
                         "spot:1@1,2", "zero", "spot:0", "spot:", "spot:x",
                         "file:{tmp}/w.cfg", "file:{tmp}/missing.cfg",
                         "file:{tmp}/bad.cfg", "nope"]),
        _flag("--steps", [*_SMALL, "64", "100000000"]), [["--render"]],
        _flag("--window", _SMALL), _flag("--format", ["pgm", "text", "gif"]),
        _flag("--out", ["{tmp}/new", "{tmp}/w.cfg"])]),
    "verify": ([], [
        _flag("--only", ["vn-kexp1", "vn-2exp-witness", "nope", ","]),
        [["--list"]]]),
    "bench": (["--window", "16", "--steps", "2"], [
        _flag("--window", ["8", "0", "1", "-1", "x", "100000000"]),
        _flag("--steps", ["0", "1", "-1", "x"])]),
    "check-kexp": (["--out", "{tmp}", "--rule", "linear m=4 coeffs=1:2",
                    "--k", "1", "--support-radius", "2", "--window", "1",
                    "--tmax", "8"], [
        _flag("--rule", _RULES), _flag("--k", ["-1", "0", "1", "2", "x"]),
        _flag("--support-radius", ["-1", "0", "1", "3", "x"]),
        _flag("--window", _SMALL), _flag("--tmax", ["-1", "0", "4", "16", "x"]),
        _flag("--alpha", ["1/2", "-3", "0", "abc", "1/0", ""]),
        _flag("--out", ["{tmp}/new", "{tmp}/w.cfg"])]),
    "freegroup": (["--tmax", "8", "--witness", "z=2a", "sprime=b"], [
        _flag("--n", ["0", "1", "2", "3", "x"]),
        _flag("--profile", ["2,3", "1", "x,1", "-1,2", "3,-1", ""]),
        [["--witness", *v] for v in (["z=2a", "sprime=b"], ["z=a", "sprime=a"],
                                     ["z=xa", "sprime=b"], ["z=", "sprime="],
                                     ["z=2a", "s=b"])],
        _flag("--tmax", ["-1", "0", "3", "8", "x"])]),
    "z2": (["--tsim", "64", "--null-check", "{tmp}/w.cfg", "--window", "3"], [
        [["--uv", *v] for v in (["z=1,0", "k=3"], ["z=0,0", "k=0"],
                                ["z=9,9", "k=2"], ["z=1,0", "k=-1"],
                                ["z=1,0", "k=x"], ["z=1", "k=2"],
                                ["k=2", "z=0,1"])],
        _flag("--null-check", ["{tmp}/w.cfg", "{tmp}/z.cfg", "{tmp}/bad.cfg",
                               "{tmp}/missing.cfg"]),
        _flag("--window", _SMALL), [["--tri-claim"]],
        _flag("--tsim", ["-1", "0", "5", "x"])]),
}


# oversized searches, each refused up front; drawn after the flags above so
# that their rule and horizon win.  The rules span the backends: the dense Z
# kernels (f3, psi), bitgrid (vn2, tri2) and the sparse step (the rest).  The
# sparse cell bound refuses mult:3,2's pair probe, the table's bytes the rest
_OVERSIZED_KEXP = [["--rule", rule, "--tmax", "100000000"]
                   for rule in ("f3", "psi", "vn2", "tri2", "mult:3,2",
                                "layered:2",
                                "linear m=3 lattice=z2 coeffs=0,1:1;1,0:1",
                                "lambda:2")]


@st.composite
def _argvs(draw):
    head = draw(st.sampled_from([[], ["--seed", "3"]]))
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    fixed, groups = _SUBCOMMANDS[name]
    argv = head + [name] + fixed
    for group in draw(st.permutations(groups)):
        if draw(st.booleans()):
            argv += draw(st.sampled_from(group))
    if name == "check-kexp" and draw(st.booleans()) and draw(st.booleans()):
        argv += draw(st.sampled_from(_OVERSIZED_KEXP))
    if name == "verify" and "--only" not in argv:
        argv.append("--list")  # the whole registry is too slow to fuzz
    if draw(st.booleans()) and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-", "x", "--k",
                                          "--seed=x"])))
    return argv


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_cli_fuzz_holds_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/w.cfg", "w") as fh:
            fh.write("lattice=z2 q=2 quiescent=0\n-8,4\t1\n8,4\t1\n")
        with open(f"{tmp}/z.cfg", "w") as fh:
            fh.write("lattice=z q=3 quiescent=0\n0\t1\n")
        with open(f"{tmp}/bad.cfg", "wb") as fh:
            fh.write(b"\xff\xfe not a configuration\n")
        argv = [a.replace("{tmp}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(tmp), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects or prints help
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
