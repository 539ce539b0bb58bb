"""Command-line entry point.

Subcommands: ``simulate`` (orbits, dumps, space-time renders), ``verify``
(the named claim suite), ``bench`` (bit-packed stepping throughput),
``check-kexp`` (bounded expansivity searches), ``freegroup`` and ``z2``
(the family-specific analyses).

Exit codes: 0 success, 1 failed verification assertion, 2 usage error,
3 resource limit.  Reports are line-oriented text with a machine-parseable
``key=value`` summary block at the end; content is deterministic apart from
the timing fields.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import bitgrid, cone, configio, engine, presets, render, z2subst
from .claims import CLAIMS, run_claims
from .config import Configuration
from .errors import ResourceLimitError, UsageError, parse_fields, parse_int
from .expansivity import directional_fronts, kexp_search, pair_preexp_probe
from .freegroup import ball_levels, fg_non2exp_witness, layer_profile
from .lattice import Z2, free
from .rules import Rule


def _parse_init(text: str, rule: Rule) -> Configuration:
    """spot:<state>[@<site>], file:<path>, or zero."""
    if text == "zero":
        return Configuration.zero(rule.lattice, rule.q)
    if text.startswith("file:"):
        c = configio.load(text[5:])
        if c.lattice != rule.lattice or c.q != rule.q:
            raise UsageError("configuration file does not match the rule")
        return c
    if text.startswith("spot:"):
        body = text[5:]
        site = rule.lattice.origin
        if "@" in body:
            body, site_text = body.split("@", 1)
            site = rule.lattice.parse_site(site_text)
        if "," in body:
            parts = [parse_int(x, "state component") for x in body.split(",")]
            alpha = rule.alphabet
            if len(parts) != len(alpha.moduli) or not all(
                    0 <= x < m for x, m in zip(parts, alpha.moduli)):
                raise UsageError(f"state {body!r} does not fit alphabet {alpha!r}")
            state = alpha.from_components(tuple(parts))
        else:
            state = parse_int(body, "spot state")
        if not 0 < state < rule.q:
            raise UsageError(f"spot state {state} outside 1..{rule.q - 1}")
        return Configuration.spot(rule.lattice, rule.q, state, site)
    raise UsageError(f"bad --init {text!r} (use spot:..., file:..., zero)")


def _out_dir(path: str) -> str:
    """Create the output directory, or refuse a path that cannot be one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from None
    return path


def _summary(fh, **fields):
    fh.write("== summary ==\n")
    for key, val in fields.items():
        fh.write(f"{key}={val}\n")


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    rule = presets.parse_rule(args.rule)
    init = _parse_init(args.init, rule)
    if args.render:
        render.check_render(rule.lattice, args.window, args.format)
    out_dir = _out_dir(args.out)
    final = engine.iterate(rule, init, args.steps)
    dump_path = os.path.join(out_dir, "final.cfg")
    configio.save(final, dump_path)
    artifacts = [dump_path]
    if args.render:
        artifacts += render.render_spacetime(rule, init, args.window, args.steps,
                                             args.format, out_dir)
    print(f"command: simulate --rule {args.rule} --init {args.init} "
          f"--steps {args.steps}")
    print(f"rule: {rule.describe()} radius={rule.radius} q={rule.q}")
    print(f"final support: {len(final)} cells, size {final.size()}")
    for p in artifacts:
        print(f"artifact: {p}")
    _summary(sys.stdout, status="ok", steps=args.steps,
             support=len(final), artifacts=len(artifacts),
             wall_seconds=f"{time.perf_counter() - t0:.3f}")
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.list:
        for name, (desc, _) in CLAIMS.items():
            print(f"{name}: {desc}")
        return 0
    names = None
    if args.only is not None:
        # repeats run once, in the order each name first appears
        names = list(dict.fromkeys(n.strip() for n in args.only.split(",")
                                   if n.strip()))
        if not names:
            raise UsageError("--only names no claim")
    results = run_claims(names, seed=args.seed)
    failed = 0
    for res in results:
        status = "pass" if res.ok else "FAIL"
        print(f"claim {res.name}: {status} ({res.seconds:.1f}s)")
        for line in res.report.lines():
            print(line)
        if not res.ok:
            failed += 1
    _summary(sys.stdout, status="ok" if failed == 0 else "fail",
             claims=len(results), failed=failed, seed=args.seed,
             wall_seconds=f"{time.perf_counter() - t0:.3f}")
    return 0 if failed == 0 else 1


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    n = args.window
    steps = args.steps
    if steps < 0:
        raise UsageError("step count must be >= 0")
    half = n // 2
    cone.check_steps(n * ((n + 63) // 64) * steps, f"a {n}-row bench",
                     "word-row steps")
    grid = bitgrid.BitGrid(-half, n - half - 1, -half, n - half - 1)
    rng_sites = [(x, 0) for x in range(-half // 2, half // 2, 7)]
    grid.set_sites(rng_sites)
    offsets = presets.vn2().neighborhood
    t_step0 = time.perf_counter()
    for _ in range(steps):
        grid.step(offsets)
    step_seconds = time.perf_counter() - t_step0
    updates = n * n * steps
    t_search0 = time.perf_counter()
    verdict = kexp_search(presets.vn2(), k=1, support_radius=6, window=1,
                          t_max=128)
    search_seconds = time.perf_counter() - t_search0
    print(f"command: bench --window {n} --steps {steps}")
    print(f"backend: bitgrid-uint64 rows x words "
          f"({grid.height}x{grid.nwords})")
    print(f"cell updates: {updates} ({n}x{n} window, {steps} steps, torus-free)")
    print(f"witness search: {verdict.searched} candidates decided")
    _summary(sys.stdout, status="ok", backend="bitgrid-uint64",
             window=n, steps=steps, cell_updates=updates,
             updates_per_second=f"{updates / max(step_seconds, 1e-9):.3e}",
             search_candidates=verdict.searched,
             search_candidates_per_second=(
                 f"{verdict.searched / max(search_seconds, 1e-9):.3e}"),
             wall_seconds=f"{time.perf_counter() - t0:.3f}")
    return 0


def cmd_check_kexp(args) -> int:
    t0 = time.perf_counter()
    rule = presets.parse_rule(args.rule)
    alpha = None
    if args.alpha is not None:
        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad --alpha {args.alpha!r} (use p/q)") from None
    print(f"command: check-kexp --rule {args.rule} --k {args.k} "
          f"--support-radius {args.support_radius} --window {args.window} "
          f"--tmax {args.tmax}")
    if rule.is_linear:
        verdict = kexp_search(rule, k=args.k,
                              support_radius=args.support_radius,
                              window=args.window, t_max=args.tmax)
    else:
        verdict = pair_preexp_probe(rule, k=args.k, R=args.support_radius,
                                    m=args.window, t_max=args.tmax)
    print(f"verdict: {verdict}")
    artifacts = 0
    # a witness is compared with zero; a pair probe's witness is the pair
    if verdict.witness is not None:
        c, d = verdict.witness, Configuration.zero(rule.lattice, rule.q)
        files = {"witness.cfg": c}
    elif verdict.pair is not None:
        c, d = verdict.pair
        files = {"witness-c.cfg": c, "witness-d.cfg": d}
    if verdict.found and args.out:
        out = _out_dir(args.out)
        for name, cfg in files.items():
            path = os.path.join(out, name)
            configio.save(cfg, path)
            print(f"artifact: {path}")
        artifacts = len(files)
    if alpha is not None and verdict.found and rule.lattice.kind == "z":
        fr = directional_fronts(rule, c, d, alpha, args.tmax)
        print(f"directional alpha={alpha}: escapes_below={fr.escapes_below} "
              f"escapes_above={fr.escapes_above} threshold={fr.threshold} "
              f"at t={args.tmax}: l={fr.adj_l[-1]} r={fr.adj_r[-1]}")
    _summary(sys.stdout, status="ok", found=str(verdict.found).lower(),
             searched=verdict.searched,
             kernel_dim=("none" if verdict.kernel_dim is None
                         else verdict.kernel_dim),
             certified=str(verdict.certified_exact).lower(),
             horizon=verdict.horizon,
             artifacts=artifacts,
             wall_seconds=f"{time.perf_counter() - t0:.3f}")
    return 0


def cmd_freegroup(args) -> int:
    t0 = time.perf_counter()
    lat = free(args.n)
    failed = 0
    nodes = {}
    if args.profile:
        try:
            L, T = (int(x) for x in args.profile.split(","))
        except ValueError:
            raise UsageError("--profile expects L,T") from None
        prof = layer_profile(args.n, L, T)
        print(f"layer profile of the F_{args.n} spot orbit "
              f"(rows t=0..{T}, columns norm 0..{L}), stepped on "
              f"B_{prof.depth} ({prof.nodes} nodes):")
        nodes = {"nodes": prof.nodes}
        for t, row in enumerate(prof.values):
            print(f"  t={t:3d}  " + "".join(str(v) for v in row))
    if args.witness:
        fields = parse_fields(" ".join(args.witness), ("z", "sprime"))
        ztext = fields["z"]
        power = parse_int(ztext[:-1], "power") if len(ztext) > 1 else 1
        gen = lat.parse_site(ztext[-1:])
        ball_levels(args.n, power)  # the witness window B_|z|, before the word
        z = tuple(gen * power)
        sprime = lat.parse_site(fields["sprime"])
        rep = fg_non2exp_witness(args.n, z, sprime, t_max=args.tmax)
        print(rep)
        failed += 0 if rep.ok else 1
    _summary(sys.stdout, status="ok" if failed == 0 else "fail",
             n=args.n, failed=failed, **nodes,
             wall_seconds=f"{time.perf_counter() - t0:.3f}")
    return 0 if failed == 0 else 1


def cmd_z2(args) -> int:
    t0 = time.perf_counter()
    failed = 0
    if args.uv:
        fields = parse_fields(" ".join(args.uv), ("z", "k"))
        z = Z2.parse_site(fields["z"])
        k = parse_int(fields["k"], "scale")
        pair = z2subst.uv_words(z, k)
        print(f"u_{k}({z[0]},{z[1]}) = {pair.u_word()}")
        print(f"v_{k}({z[0]},{z[1]}) = {pair.v_word()}")
    if args.null_check:
        c = configio.load(args.null_check)
        result = z2subst.exact_trace_null(c, args.window)
        print(f"exact null trace at window {args.window}: {result}")
    if args.tri_claim:
        rep = z2subst.tri_claim_check(t_sim=args.tsim)
        print(rep)
        failed += 0 if rep.ok else 1
    _summary(sys.stdout, status="ok" if failed == 0 else "fail", failed=failed,
             wall_seconds=f"{time.perf_counter() - t0:.3f}")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="caexp",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized property sweeps")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a rule and dump/render the orbit")
    p.add_argument("--rule", required=True)
    p.add_argument("--init", default="spot:1")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--render", action="store_true")
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--format", choices=("pgm", "text"), default="pgm")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the named verification claims")
    p.add_argument("--only", help="comma-separated claim names")
    p.add_argument("--list", action="store_true", help="list claim names")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="bit-packed stepping throughput")
    p.add_argument("--window", type=int, default=4096)
    p.add_argument("--steps", type=int, default=256)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("check-kexp", help="bounded k-expansivity search")
    p.add_argument("--rule", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--support-radius", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--alpha", help="rational drift p/q for directional fronts")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check_kexp)

    p = sub.add_parser("freegroup", help="free-group analyses")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--profile", help="L,T layer profile bounds")
    p.add_argument("--witness", nargs=2, metavar=("z=POWgen", "sprime=gen"))
    p.add_argument("--tmax", type=int, default=64)
    p.set_defaults(fn=cmd_freegroup)

    p = sub.add_parser("z2", help="mod-2 Z^2 analyses")
    p.add_argument("--uv", nargs=2, metavar=("z=X,Y", "k=K"))
    p.add_argument("--null-check", metavar="CONFIG")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--tri-claim", action="store_true")
    p.add_argument("--tsim", type=int, default=2048)
    p.set_defaults(fn=cmd_z2)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
