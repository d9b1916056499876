"""Command-line experiment runner.

Every subcommand is fully determined by its flags (one master seed drives
all randomness), writes machine-readable reports, and uses the exit-code
contract 0 = checks passed, 1 = a check failed, 2 = configuration or I/O
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ClebError, ConfigError
from .graph import load_graph_json
from .instances import fixture_path
from .util import derive
from .weights import Fixed, WeightAssignment, parse_model_spec


def _read_graph(args) -> tuple:
    """(graph, embedded weights or None, file edge ids) of --graph, which
    names an instance file or fixture:<name>."""
    path = args.graph
    if path.startswith("fixture:"):
        path = fixture_path(path[len("fixture:"):])
    return load_graph_json(path)


def _load_instance(args) -> tuple:
    graph, embedded, file_ids = _read_graph(args)
    spec = getattr(args, "weights", None)
    if spec:
        model = parse_model_spec(spec)
        if isinstance(model, Fixed):
            model = Fixed({i: model.values[fid] for i, fid in enumerate(file_ids)})
        assign = WeightAssignment(model, getattr(args, "seed", 0))
    elif embedded is not None:
        assign = WeightAssignment(Fixed(embedded), 0)
    else:
        raise ConfigError("no weights: pass --weights or embed them in the graph file")
    return graph, assign, file_ids


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_msa(args) -> int:
    from .algorithms import cleb_walk_algorithm
    from .oracle import total_weight

    graph, assign, file_ids = _load_instance(args)
    arb, _ = cleb_walk_algorithm(graph, assign, step_cap=args.step_cap)
    edges = sorted(file_ids[e] for e in arb.edge_set())
    if args.format == "json":
        text = json.dumps({"edges": edges, "total_weight": float(total_weight(assign, arb))},
                          sort_keys=True) + "\n"
    else:
        text = "edge\n" + "".join(f"{e}\n" for e in edges)
    _emit(text, args.out)
    if args.out:
        print(f"minimum arborescence: {len(edges)} edges -> {args.out}")
    return 0


def _cmd_cleb_walk(args) -> int:
    from .algorithms import cleb_walk

    graph, assign, _ = _load_instance(args)
    record = cleb_walk(graph, assign, args.start, step_cap=args.step_cap)
    if args.out:
        record.log.write_jsonl(args.out)
    print(f"walk from {args.start}: {record.terminal} after {len(record.steps)} steps, "
          f"{len(record.log.records())} contractions"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_lcrw(args) -> int:
    from .walks import lcrw_run

    graph, _, _ = _read_graph(args)
    trace, _ = lcrw_run(graph, args.start, args.step_cap, args.seed)
    if args.out:
        trace.write_csv(args.out)
    print(f"lcrw from {args.start}: {trace.terminal} after {len(trace.steps)} steps, "
          f"{trace.returns_to_empty()} returns to a point"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_lcrw_grid(args) -> int:
    from .families import LatticeBox, transience_trace

    if args.side < 0:
        raise ConfigError("--side must not be negative")
    if args.side < 3 or args.side % 2 == 0:
        raise ConfigError(f"--side must be odd and at least 3 (a box of radius r has side "
                          f"2r + 1), not {args.side}")
    if not args.out:
        raise ConfigError("lcrw-grid needs --out for the trace file")
    family = LatticeBox(2)
    origin = family._vcode((0, 0))
    trace, positions = transience_trace(family, args.side // 2, origin, args.step_cap, args.seed)
    trace.write_csv(args.out, positions=positions)
    print(f"grid walk: {trace.terminal} after {len(trace.steps)} steps, "
          f"max path {trace.max_path_len()}, {trace.returns_to_empty()} returns -> {args.out}")
    return 0


def _cmd_wilson_sandwich(args) -> int:
    from .walks import wilson_sandwich_trial

    graph, assign, _ = _load_instance(args)
    if not isinstance(assign.model, Fixed):
        raise ConfigError("wilson-sandwich needs fixed base weights")
    weights = {e: float(assign.base(e)) for e in range(graph.n_edges)}
    results, _ = wilson_sandwich_trial(graph, weights, args.start, args.betas,
                                       args.trials, args.seed, step_cap=args.step_cap)
    lines = ["beta,trials,frequency,stderr,capped"]
    for r in results:
        lines.append(f"{r.beta},{r.trials},{repr(r.frequency)},{repr(r.stderr)},{r.capped}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        print(f"sandwich frequencies -> {args.out}")
    return 0


def _cmd_invasion_check(args) -> int:
    from .walks import invasion_equivalence_check

    graph, assign, _ = _load_instance(args)
    if not isinstance(assign.model, Fixed):
        raise ConfigError("invasion-check needs fixed symmetric weights")
    weights = {e: assign.base(e) for e in range(graph.n_edges)}
    reversal = _derive_reversal(graph, weights)
    verdict = invasion_equivalence_check(graph, reversal, weights, args.start)
    _emit(f"prefixes equal: {verdict.equal_prefixes}; invasion tree is the minimum "
          f"spanning tree: {verdict.invasion_matches_kruskal}\n", args.out)
    if args.out:
        print(f"invasion verdict -> {args.out}")
    return 0 if (verdict.equal_prefixes and verdict.invasion_matches_kruskal) else 1


def _derive_reversal(graph, weights) -> list[int]:
    unpaired: dict[tuple, list[int]] = {}
    reversal = [-1] * graph.n_edges
    for e, t, h in graph.edges():
        key = (h, t, weights[e])
        bucket = unpaired.get(key)
        if bucket:
            other = bucket.pop(0)
            reversal[e] = other
            reversal[other] = e
        else:
            unpaired.setdefault((t, h, weights[e]), []).append(e)
    if any(r < 0 for r in reversal):
        raise ConfigError("graph is not a symmetric bidirected instance")
    return reversal


def _cmd_dist_compare(args) -> int:
    from .errors import PreconditionViolatedError
    from .oracle import msa_distribution

    graph, _, file_ids = _read_graph(args)
    back = {fid: i for i, fid in enumerate(file_ids)}
    target_sig = None
    if args.target:
        target_sig = tuple(sorted(back[int(x)] for x in args.target.split(",")))
    lines = ["model,signature,count,freq,stderr"]
    summary = []
    for spec in args.models.split(","):
        model = parse_model_spec(spec)
        report, _ = msa_distribution(graph, model, args.samples,
                                     derive(args.seed, spec))
        for cell in report.cells:
            sig = " ".join(str(file_ids[e]) for e in cell.signature)
            lines.append(f"{spec},{sig},{cell.count},{repr(cell.freq)},{repr(cell.stderr)}")
        if target_sig is not None:
            for cell in report.cells:
                if cell.signature == target_sig:
                    summary.append((spec, cell.freq, cell.stderr))
                    break
            else:
                raise PreconditionViolatedError("target is not an arborescence here")
    _emit("\n".join(lines) + "\n", args.out)
    for spec, freq, stderr in summary:
        print(f"{spec}: target frequency {freq:.6f} +- {stderr:.6f}")
    return 0


def _cmd_wired_limit(args) -> int:
    from .families import parse_family, wired_msa_sequence

    cfg = _exhaustion_config(args, _CONFIG_TYPES.keys() - {"pairs"})
    family = parse_family(cfg["family"], seed=cfg.get("family_seed", 0))
    model = parse_model_spec(cfg.get("model", "exp1"))
    radii = cfg["radii"]
    probes = cfg["probes"]
    lines = ["seed_index,probe,stabilization_radius,censored," +
             ",".join(f"edge_at_r{r}" for r in radii)]
    stable = 0
    total = 0
    for s in range(cfg.get("seeds", 1)):
        report = wired_msa_sequence(family, model, radii, probes,
                                    derive(cfg["seed"], "wired", s), cfg["step_cap"])
        for hist in report.probes:
            total += 1
            agree = len(set(hist.by_radius.values())) == 1
            stable += agree
            row = [str(s), str(hist.probe), str(hist.stabilization_radius()),
                   "1" if hist.censored else "0"]
            row += [str(hist.by_radius[r]) for r in radii]
            lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    print(f"stable across all radii: {stable}/{total}")
    return 0


def _cmd_connectivity(args) -> int:
    import random as _random

    from .families import connectivity_monotonicity_check, parse_family

    cfg = _exhaustion_config(args, _CONFIG_TYPES.keys())
    family = parse_family(cfg["family"], seed=cfg.get("family_seed", 0))
    model = parse_model_spec(cfg.get("model", "exp1"))
    radii = cfg["radii"]
    pool = cfg["probes"]
    n_pairs = cfg.get("pairs", 10)
    violations = 0
    lines = ["seed_index,violations"]
    for s in range(cfg.get("seeds", 1)):
        rng = _random.Random(derive(cfg["seed"], "conn-pairs", s))
        pairs = [tuple(rng.sample(pool, 2)) for _ in range(n_pairs)]
        verdict = connectivity_monotonicity_check(family, model, radii, pairs,
                                                  derive(cfg["seed"], "conn", s),
                                                  cfg["step_cap"])
        violations += len(verdict.violations)
        lines.append(f"{s},{len(verdict.violations)}")
    _emit("\n".join(lines) + "\n", args.out)
    print(f"connectivity violations: {violations}")
    return 0 if violations == 0 else 1


# every config key with the type of its value (lists hold ints)
_CONFIG_TYPES = {"family": str, "model": str, "radii": list, "probes": list, "family_seed": int,
                 "seeds": int, "seed": int, "pairs": int, "step_cap": int}
_TYPE_NAMES = {str: "a string", int: "an int", list: "a list of ints"}
_REQUIRED_CONFIG_KEYS = ("family", "radii", "probes")
# flags that only describe the run when no --config file does
_FLAG_ONLY = ("family", "weights", "radii", "probes", "seeds", "pairs", "seed", "step_cap")
# what a run uses when neither a flag nor the config file sets it
_RUN_DEFAULTS = {"seed": 0, "step_cap": 1_000_000}


def _exhaustion_config(args, keys) -> dict:
    if getattr(args, "config", None):
        clash = [f"--{k.replace('_', '-')}" for k in _FLAG_ONLY
                 if getattr(args, k, None) is not None]
        if clash:
            raise ConfigError(f"{', '.join(clash)} cannot be combined with --config")
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{args.config}: {err}") from err
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
        unknown = sorted(set(cfg) - keys)
        if unknown:
            raise ConfigError(f"{args.config}: unknown keys {unknown}")
        for key, value in cfg.items():  # by type(), so JSON true/false are not ints
            want = _CONFIG_TYPES[key]
            if type(value) is not want or want is list and any(type(x) is not int for x in value):
                raise ConfigError(f"{args.config}: {key} must be {_TYPE_NAMES[want]}, "
                                  f"not {value!r}")
        missing = [k for k in _REQUIRED_CONFIG_KEYS if k not in cfg]
        if missing:
            raise ConfigError(f"{args.config}: missing keys {missing}")
        return {**_RUN_DEFAULTS, **cfg}
    if not args.family:
        raise ConfigError("pass --family or --config")
    if not args.radii:
        raise ConfigError("pass --radii")
    if not args.probes:
        raise ConfigError("pass --probes")
    return {"family": args.family, "model": args.weights or "exp1",
            "radii": [int(r) for r in args.radii.split(",")],
            "probes": [int(p) for p in args.probes.split(",")],
            "seeds": 1 if args.seeds is None else args.seeds,
            "pairs": 10 if getattr(args, "pairs", None) is None else args.pairs,
            "seed": _RUN_DEFAULTS["seed"] if args.seed is None else args.seed,
            "step_cap": (_RUN_DEFAULTS["step_cap"] if args.step_cap is None
                         else args.step_cap)}


def _cmd_verify(args) -> int:
    from .verify import run_suite

    result = run_suite(args.suite, seed=args.seed, fast=args.fast)
    print(f"[{result.name}] {'PASS' if result.ok else 'FAIL'}: {result.summary}")
    failing = [row for row in result.rows
               if any(value is False for value in row.values())]
    for row in failing[:10]:
        print("  failed check: " + ", ".join(f"{k}={v}" for k, v in row.items()))
    if len(failing) > 10:
        print(f"  ... and {len(failing) - 10} more failing checks")
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        ext = "json" if args.format == "json" else "csv"
        path = os.path.join(args.out, f"{result.name}.{ext}")
        with open(path, "w") as fh:
            fh.write(result.report_text(args.format))
        print(f"report -> {path}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleb",
        description="Minimal spanning arborescences by cycle contraction, "
                    "and the stochastic processes around them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=False, start=False, step_cap=1_000_000, weights=True, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if step_cap:
            p.add_argument("--step-cap", type=int, default=step_cap)
        p.add_argument("--out")
        if graph:
            p.add_argument("--graph", required=True,
                           help="instance file or fixture:<name>")
            if weights:
                p.add_argument("--weights", help="exp1 | unif01 | fixed:<path> | "
                                                 "boltzmann:<path>:<beta>")
        if start:
            p.add_argument("--start", type=int, required=True)

    p = sub.add_parser("msa", help="minimum arborescence of an instance")
    common(p, graph=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_msa)

    p = sub.add_parser("cleb-walk", help="single contracting walk with a JSONL log")
    common(p, graph=True, start=True)
    p.set_defaults(fn=_cmd_cleb_walk)

    p = sub.add_parser("lcrw", help="loop-contracting random walk trace")
    common(p, graph=True, start=True, weights=False)
    p.set_defaults(fn=_cmd_lcrw)

    p = sub.add_parser("lcrw-grid", help="walk trace with x,y coordinates on a lattice:2 box")
    common(p)
    p.add_argument("--side", type=int, required=True, help="box side, odd and at least 3")
    p.set_defaults(fn=_cmd_lcrw_grid)

    p = sub.add_parser("wilson-sandwich", help="erased-versus-contracted frequencies")
    common(p, graph=True, start=True, step_cap=100_000)
    p.add_argument("--betas", type=lambda s: [float(x) for x in s.split(",")],
                   default=[2.0, 5.0, 10.0, 20.0])
    p.add_argument("--trials", type=int, default=400)
    p.set_defaults(fn=_cmd_wilson_sandwich)

    p = sub.add_parser("invasion-check", help="walk prefixes versus invasion order")
    common(p, graph=True, start=True, step_cap=None, seed=False)
    p.set_defaults(fn=_cmd_invasion_check)

    p = sub.add_parser("dist-compare", help="arborescence law under different weight models")
    common(p, graph=True, step_cap=None, weights=False)
    p.add_argument("--models", default="exp1,unif01")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--target", help="comma-separated edge ids of the target arborescence")
    p.set_defaults(fn=_cmd_dist_compare)

    p = sub.add_parser("wired-limit", help="probe-edge stabilization across radii")
    common(p)
    p.add_argument("--family")
    p.add_argument("--weights")
    p.add_argument("--radii")
    p.add_argument("--probes")
    p.add_argument("--seeds", type=int)
    p.add_argument("--config", help="JSON file with family/model/radii/probes/seeds")
    p.set_defaults(fn=_cmd_wired_limit, seed=None, step_cap=None)

    p = sub.add_parser("connectivity", help="connectivity monotonicity across radii")
    common(p)
    p.add_argument("--family")
    p.add_argument("--weights")
    p.add_argument("--radii")
    p.add_argument("--probes")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--config")
    p.set_defaults(fn=_cmd_connectivity, seed=None, step_cap=None)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fast", action="store_true",
                   help="reduced sample sizes (for smoke runs)")
    p.add_argument("--out", help="directory for the report file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.seed is None:
        from .verify import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    except ClebError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
