"""Command-line harness: thresholds, covariance tables, sampling, expansion
checks, the exact-diagonalization oracle, uniqueness and order-parameter
scans, and the one-shot verification suite.

Every input of a run is a configuration key.  Each flag of a subcommand is
named after a key (``--n-max`` for ``matsubara_cutoff`` is the one alias),
overrides it, and is parsed as the file's value is; ``COMMANDS`` lists the
keys each subcommand takes as flags, and the parser is built from it.  Every
run validates its configuration, writes a manifest (config + version + seed)
beside its results, and is deterministic: identical config and seed give
byte-identical artifacts, so the manifest's config reproduces the run.
Errors exit nonzero with a machine-readable JSON message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (CHOICES, KEYS, ConfigError, load_config, model_params, parse_value,
                     write_manifest)
from .covariance import CovarianceKernel
from .lattice import Boundary, Lattice, RodMode
from .params import (ModelParams, beta_threshold, epsilon_of_m, field_threshold,
                     mass_threshold, rescale)
from .sampler import (N_BATCHES, RQMC_BATCHES, BoundaryCondition, Ensemble, expectation,
                      periodic_bc, tempered_bc, zero_bc)

_PHI_TERM = re.compile(r"phi\[\s*(-?\d+)\s*,\s*([0-9.eE+-]+)\s*,\s*(\d+)\s*\]")


def parse_observable(text: str):
    """Parse products of phi[site, tau, component] into factor tuples."""
    factors = []
    rest = text.replace(" ", "")
    for piece in rest.split("*"):
        m = _PHI_TERM.fullmatch(piece)
        if not m:
            raise ConfigError(f"cannot parse observable factor {piece!r}")
        factors.append((int(m.group(1)), float(m.group(2)), int(m.group(3))))
    if not factors:
        raise ConfigError("observable is empty")
    return factors


def _load_tempered_file(path: str, box: Lattice, n_slices: int, d: int) -> dict:
    """CSV columns: site, slice, component, value.  Sites are coordinates of
    the outside layer, semicolon-joined for nu > 1 (plain integer for nu=1).
    A row that does not parse, or names a site off that layer or a slice or
    component off the grid, is an error that names the file and line."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read tempered boundary file {path}: {exc.strerror}") from None
    outside = {site for _, site in box.boundary_pairs()}
    xi: dict = {}
    with fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].startswith("#"):
                continue
            where = f"tempered boundary file {path}, line {rows.line_num}"
            try:
                coords = tuple(int(c) for c in row[0].split(";"))
                sl, comp, value = int(row[1]), int(row[2]), float(row[3])
            except (ValueError, IndexError):
                raise ConfigError(f"{where}: expected site, slice, component, value") from None
            if coords not in outside:
                raise ConfigError(f"{where}: site {row[0]} is not in the box's outside layer")
            if not (0 <= sl < n_slices and 0 <= comp < d):
                raise ConfigError(f"{where}: slice {sl} or component {comp} is off the "
                                  f"grid of {n_slices} slices and {d} components")
            xi.setdefault(coords, np.zeros((n_slices, d)))[sl, comp] = value
    return xi


def _bc_spec(cfg: dict) -> str:
    """The box boundary of every subcommand, validated."""
    spec = cfg["boundary"]
    if spec not in ("periodic", "zero", "dirichlet") and not spec.startswith("tempered:"):
        raise ConfigError(f"unknown boundary condition {spec!r}")
    return spec


def _require_periodic(cfg: dict, what: str):
    if _bc_spec(cfg) != "periodic":
        raise ConfigError(f"{what} needs boundary = periodic, got {cfg['boundary']!r}")


def _require_batches(cfg: dict, batches: int):
    """Estimators split their draws into equal batches: N_BATCHES of a plain
    stream, RQMC_BATCHES of scrambled rows; a command drawing both needs both."""
    if cfg["samples"] % batches:
        raise ConfigError(f"samples must be a multiple of {batches}, got {cfg['samples']}")


def _build_bc(cfg: dict, params: ModelParams, n_slices: int) -> BoundaryCondition:
    spec = _bc_spec(cfg)
    if spec == "periodic":
        return periodic_bc()
    if spec.startswith("tempered:"):
        box = Lattice(nu=params.nu, dims=params.dims, boundary=Boundary.DIRICHLET)
        return tempered_bc(_load_tempered_file(spec.split(":", 1)[1], box, n_slices, params.d))
    return zero_bc()


def build_ensemble(params: ModelParams, cfg: dict) -> Ensemble:
    r = rescale(params)
    if math.isinf(r.beta_hat):
        raise ConfigError("sampling requires finite beta; covariance formulas "
                          "support beta = inf")
    n_slices = max(2, round(cfg["slices_per_unit"] * r.beta_hat))
    bc = _build_bc(cfg, params, n_slices)
    lat = Lattice(nu=params.nu, dims=params.dims, boundary=bc.boundary)
    return Ensemble(lattice=lat, a=params.a, J=params.J, beta_hat=r.beta_hat,
                    n_slices=n_slices, b_m=r.b_m, delta_m=r.delta_m, d=params.d,
                    h_hat=r.h_hat, bc=bc)


def _emit(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return path


def _write_table(out_dir: Path, name: str, header: list, rows: list):
    """Write a CSV result whose rows are all computed, so an error leaves no file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(path)


# -- subcommands -------------------------------------------------------------------


def cmd_thresholds(cfg: dict, out_dir: Path) -> int:
    p = model_params(cfg)
    c = cfg["c"]
    c_g = 1.0 / p.a  # box- and temperature-uniform value of the summed kernel
    m_star = mass_threshold(p.b, p.a, c_g, c, p.d)
    h_norm = float(np.linalg.norm(p.h))
    payload = {
        "m_star": m_star,
        "beta_star": beta_threshold(p.b, p.a, c_g, c, p.d),
        "m_star_h": field_threshold(m_star, h_norm, c_g, c),
        "epsilon_m": epsilon_of_m(p.b, p.a, c_g, p.m, p.d),
        "C_G": c_g,
        "c": c,
    }
    _emit(out_dir, "thresholds.json", payload)
    return 0


def cmd_covariance(cfg: dict, out_dir: Path) -> int:
    p = model_params(cfg)
    r = rescale(p)
    boundary = Boundary.PERIODIC if _bc_spec(cfg) == "periodic" else Boundary.DIRICHLET
    lat = Lattice(nu=p.nu, dims=p.dims, boundary=boundary)
    kern = CovarianceKernel(lat, p.a, p.J, r.beta_hat)
    origin = (0,) * p.nu
    rows = []
    for j in range(p.dims[0]):
        site = (j,) + (0,) * (p.nu - 1)
        for tau in cfg["tau_grid"]:
            closed = kern.closed(site, origin, tau)
            if boundary is Boundary.PERIODIC and not math.isinf(r.beta_hat):
                mats = kern.matsubara(site, origin, tau, cfg["matsubara_cutoff"])
            else:
                mats = closed
            rows.append([j, tau, repr(mats), repr(closed), repr(abs(mats - closed))])
    _write_table(out_dir, "covariance.csv", ["j", "tau", "G_matsubara", "G_closed", "abs_diff"],
                 rows)
    return 0


def cmd_sample(cfg: dict, out_dir: Path) -> int:
    if cfg["backend"] == "reweight":
        _require_batches(cfg, RQMC_BATCHES)
    p = model_params(cfg)
    ens = build_ensemble(p, cfg)
    factors = parse_observable(cfg.get("observable") or "phi[0,0,0]")
    obs = ens.phi_product(factors)
    res = expectation(ens, obs, cfg["samples"], cfg["seed"],
                      backend=cfg["backend"])
    payload = {"mean": res.mean, "stderr": res.stderr, "n": res.n_samples,
               "ess": res.ess, "seed": res.seed}
    _emit(out_dir, "sample.json", payload)
    return 0


def cmd_oracle(cfg: dict, out_dir: Path) -> int:
    from .oracle import GridHamiltonian, thermal_correlation

    p = model_params(cfg)
    r = rescale(p)
    if math.isinf(r.beta_hat):
        raise ConfigError("oracle traces need finite beta")
    if p.d != 1:
        raise ConfigError(f"oracle solves scalar displacements and needs d = 1, got d = {p.d}")
    if any(p.h):
        raise ConfigError(f"oracle Hamiltonians have no field term and need h = 0, "
                          f"got h = {', '.join(map(str, p.h))}")
    for tau in cfg["tau_grid"]:
        if not 0.0 <= tau <= r.beta_hat:
            raise ConfigError(f"tau must lie in [0, beta_hat = {r.beta_hat!r}], got {tau!r}")
    ham = GridHamiltonian(n_sites=cfg["sites"], a=p.a, J=p.J, b_m=r.b_m,
                          delta_m=r.delta_m, extent=cfg["extent"], n_grid=cfg["grid"])
    _write_table(out_dir, "oracle.csv", ["tau", "correlation"],
                 [[tau, repr(thermal_correlation(ham, r.beta_hat, tau))]
                  for tau in cfg["tau_grid"]])
    return 0


def cmd_cluster(cfg: dict, out_dir: Path) -> int:
    from .cluster import (MAX_BF_ORDER, ClusterInstance, newton_leibniz_report,
                          residual_decay_report)
    from .verify import tree_order_facts

    check = cfg["check"]
    if check in ("trees", "bf"):
        # the same exact facts per order; bf reaches the tree sum's last order
        last = 6 if check == "trees" else MAX_BF_ORDER
        payload = {"orders": {str(n): tree_order_facts(n) for n in range(2, last + 1)}}
        payload["ok"] = all(row["ok"] for row in payload["orders"].values())
    else:
        if check == "residuals" and cfg["order"] < 2:
            raise ConfigError(f"cluster --check residuals compares consecutive orders and "
                              f"needs order >= 2, got order = {cfg['order']}")
        _require_periodic(cfg, f"cluster --check {check}")
        # R1 and the IBP remainder draw scrambles; residuals' F ratios also draw plain batches
        _require_batches(cfg, RQMC_BATCHES if check == "newton-leibniz"
                         else math.lcm(N_BATCHES, RQMC_BATCHES))
        p = model_params(cfg)
        mode = RodMode(cfg["mode"])
        ens = build_ensemble(p, cfg)
        factors = parse_observable(cfg.get("observable") or "phi[0,0.5,0]*phi[0,0.5,0]")
        monomials: dict = {}
        for site, tau, comp in factors:
            if comp != 0:
                raise ConfigError("expansion checks use scalar displacements")
            t = ens.grid.point(site, ens.grid.slice_of(tau))
            monomials[t] = monomials.get(t, 0) + 1
        inst = ClusterInstance(ensemble=ens, mode=mode, monomials=monomials)
        if check == "newton-leibniz":
            rep = newton_leibniz_report(inst, cfg["samples"], cfg["seed"])
            payload = {
                "direct": rep.direct, "term_one": rep.term_one,
                "remainder": rep.remainder, "remainder_ibp": rep.remainder_ibp,
                "sigma_gap": abs(rep.remainder[0] - rep.remainder_ibp[0]) /
                             math.hypot(rep.remainder[1], rep.remainder_ibp[1]),
            }
            payload["ok"] = payload["sigma_gap"] < 4.0
        else:
            start = time.perf_counter()
            rep = residual_decay_report(
                inst, cfg["order"], cfg["samples"], cfg["samples"],
                cfg["seed"], lambda n, k: print(f"cluster residuals: order {n} done, {k} rod "
                                                f"sequences, {time.perf_counter() - start:.1f} s "
                                                "elapsed", file=sys.stderr, flush=True))
            # every drop must be resolved by 3 combined standard errors
            payload = {
                "direct": rep.direct,
                "orders": rep.orders,
                "partial_sums": rep.partial_sums,
                "residuals": rep.residuals,
                "ok": all(hi - lo >= 3.0 * math.hypot(dhi, dlo)
                          for (hi, dhi), (lo, dlo) in zip(rep.residuals, rep.residuals[1:])),
            }
    _emit(out_dir, f"cluster_{check.replace('-', '_')}.json", payload)
    return 0 if payload["ok"] else 1


def cmd_uniqueness(cfg: dict, out_dir: Path) -> int:
    from .sampler import uniqueness_gap

    _require_batches(cfg, RQMC_BATCHES)
    p = model_params(cfg)
    if p.nu != 1:
        raise ConfigError(f"uniqueness tempers the two ends of a chain and needs nu = 1, "
                          f"got nu = {p.nu}")
    sizes = cfg["sizes"] or (8, 16)
    boxes = {n: replace(p, dims=(n,)) for n in sizes}  # an odd size fails before any run

    def make_pair(n):
        ens = build_ensemble(boxes[n], cfg)  # a zero-boundary chain (FIXED_KEYS)

        def ends_at(value):  # a chain's outside layer is its two ends
            return tempered_bc({end: np.full((ens.n_slices, ens.d), value)
                                for end in ((-1,), (n,))})

        return replace(ens, bc=ends_at(1.0)), replace(ens, bc=ends_at(0.0))

    rows = uniqueness_gap(make_pair, lambda n: (n // 2,), tau=0.0,
                          lattice_sizes=sizes, n_samples=cfg["samples"],
                          seed=cfg["seed"])
    gaps = [abs(row["gap"]) for row in rows]
    payload = {"rows": rows,
               "monotone_decrease": all(gaps[i] > gaps[i + 1]
                                        for i in range(len(gaps) - 1))}
    _emit(out_dir, "uniqueness.json", payload)
    return 0


def cmd_order_param(cfg: dict, out_dir: Path) -> int:
    from .sampler import order_parameter

    _require_periodic(cfg, "order-param")
    _require_batches(cfg, RQMC_BATCHES)
    p = model_params(cfg)
    h_values = cfg["h_values"]
    sizes = cfg["sizes"] or p.dims[:1]
    boxes = {n: replace(p, dims=(n,) * p.nu) for n in sizes}  # an odd size fails before any run
    rows = order_parameter(
        lambda n, h: build_ensemble(replace(boxes[n], h=(h,) + (0.0,) * (p.d - 1)), cfg),
        rescale(p).alpha, h_values, sizes, cfg["samples"], cfg["seed"])
    payload = {"rows": rows, "extrapolated": rows[-1]["sigma"],
               "extrapolated_stderr": rows[-1]["stderr"]}
    _emit(out_dir, "order_param.json", payload)
    return 0


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    from .verify import run_verification

    results = run_verification(cfg)
    width = max(len(name) for name, *_ in results)
    for name, ok, detail, seconds in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {seconds:6.2f} s  {detail}")
    # wall times vary from run to run, so verify.json leaves them out
    payload = {"checks": [{"name": n, "ok": ok, "detail": d}
                          for n, ok, d, _ in results],
               "ok": all(ok for _, ok, *_ in results)}
    _emit(out_dir, "verify.json", payload)
    return 0 if payload["ok"] else 1


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take ``main``'s JSON error path."""

    def error(self, message):
        raise ConfigError(message)


# subcommand -> (handler, the configuration keys it takes as flags)
COMMANDS = {
    "thresholds": (cmd_thresholds, ()),
    "covariance": (cmd_covariance, ("matsubara_cutoff", "tau_grid", "nu", "dims", "boundary")),
    "sample": (cmd_sample, ("samples", "slices_per_unit", "backend", "observable", "boundary",
                            "nu", "dims")),
    "cluster": (cmd_cluster, ("order", "mode", "observable", "check", "samples")),
    "oracle": (cmd_oracle, ("sites", "grid", "extent", "tau_grid")),
    "uniqueness": (cmd_uniqueness, ("sizes", "samples")),
    "order-param": (cmd_order_param, ("h_values", "sizes", "samples")),
    "verify": (cmd_verify, ()),
}
_FLAG_ALIASES = {"matsubara_cutoff": "--n-max"}
_HELP = {"boundary": "periodic, zero, dirichlet or tempered:FILE",
         **{key: ", ".join(map(str, values)) for key, values in CHOICES.items()}}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anhcrystal",
        description="Euclidean Gibbs measure toolkit for a quantum anharmonic crystal",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", help="override the run seed")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, keys) in COMMANDS.items():
        command = sub.add_parser(name)
        for key in keys:
            flag = _FLAG_ALIASES.get(key, "--" + key.replace("_", "-"))
            command.add_argument(flag, dest=key, help=_HELP.get(key))
    return parser


# keys a command sets whatever the configuration says, so that its manifest
# records the box it ran: uniqueness tempers the two ends of zero-boundary chains
FIXED_KEYS = {"uniqueness": {"boundary": "zero"}}


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        # a flag whose dest is a configuration key overrides that key, parsed
        # as the file's value would be
        overrides = {key: parse_value(key, raw) for key, raw in vars(args).items()
                     if key in KEYS and raw is not None}
        cfg = load_config(args.config, {**overrides, **FIXED_KEYS.get(args.subcommand, {})})
        out_dir = Path(args.out)
        write_manifest(out_dir, args.subcommand, cfg, __version__)
        return COMMANDS[args.subcommand][0](cfg, out_dir)
    except ValueError as exc:  # ConfigError included
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
