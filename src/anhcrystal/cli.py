"""Command-line harness: thresholds, covariance tables, sampling, expansion
checks, the exact-diagonalization oracle, uniqueness and order-parameter
scans, and the one-shot verification suite.

Every run validates its configuration, writes a manifest (config + version +
seed) beside its results, and is deterministic: identical config and seed
give byte-identical artifacts.  Errors exit nonzero with a machine-readable
JSON message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config, model_params, write_manifest
from .covariance import CovarianceKernel
from .lattice import Boundary, Lattice, RodMode
from .params import (ModelParams, beta_threshold, epsilon_of_m, field_threshold,
                     mass_threshold, rescale)
from .sampler import (BoundaryCondition, Ensemble, expectation,
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


def _load_tempered_file(path: str, n_slices: int, d: int) -> dict:
    """CSV columns: site, slice, component, value.  Sites are coordinates of
    the outside layer, semicolon-joined for nu > 1 (plain integer for nu=1)."""
    xi: dict = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            coords = tuple(int(c) for c in row[0].split(";"))
            traj = xi.setdefault(coords, np.zeros((n_slices, d)))
            traj[int(row[1]), int(row[2])] = float(row[3])
    return xi


def _build_bc(cfg: dict, n_slices: int, d: int) -> BoundaryCondition:
    spec = cfg.get("bc", cfg.get("boundary", "periodic"))
    if spec == "periodic":
        return periodic_bc()
    if spec in ("zero", "dirichlet"):
        return zero_bc()
    if spec.startswith("tempered:"):
        return tempered_bc(_load_tempered_file(spec.split(":", 1)[1], n_slices, d))
    raise ConfigError(f"unknown boundary condition {spec!r}")


def build_ensemble(params: ModelParams, cfg: dict,
                   bc: BoundaryCondition | None = None) -> Ensemble:
    r = rescale(params)
    if math.isinf(r.beta_hat):
        raise ConfigError("sampling requires finite beta; covariance formulas "
                          "support beta = inf")
    n_slices = max(2, round(cfg["slices_per_unit"] * r.beta_hat))
    bc = bc or _build_bc(cfg, n_slices, params.d)
    lat = Lattice(nu=params.nu, dims=params.dims, boundary=bc.lattice_boundary())
    return Ensemble(lattice=lat, a=params.a, J=params.J, beta_hat=r.beta_hat,
                    n_slices=n_slices, b_m=r.b_m, delta_m=r.delta_m, d=params.d,
                    h_hat=r.h_hat, bc=bc)


def _emit(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return path


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


def cmd_covariance(cfg: dict, out_dir: Path, args) -> int:
    p = model_params(cfg)
    r = rescale(p)
    boundary = Boundary.DIRICHLET if cfg["boundary"] == "dirichlet" else Boundary.PERIODIC
    lat = Lattice(nu=p.nu, dims=p.dims, boundary=boundary)
    kern = CovarianceKernel(lat, p.a, p.J, r.beta_hat)
    n_max = cfg["matsubara_cutoff"]
    taus = [float(t) for t in (args.tau_grid or "0.25,0.5,1.0").split(",")]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "covariance.csv"
    origin = (0,) * p.nu
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "tau", "G_matsubara", "G_closed", "abs_diff"])
        for j in range(p.dims[0]):
            site = (j,) + (0,) * (p.nu - 1)
            for tau in taus:
                closed = kern.closed(site, origin, tau)
                if boundary is Boundary.PERIODIC and not math.isinf(r.beta_hat):
                    mats = kern.matsubara(site, origin, tau, n_max)
                else:
                    mats = closed
                writer.writerow([j, tau, repr(mats), repr(closed),
                                 repr(abs(mats - closed))])
    print(path)
    return 0


def cmd_sample(cfg: dict, out_dir: Path, args) -> int:
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


def cmd_oracle(cfg: dict, out_dir: Path, args) -> int:
    from .oracle import GridHamiltonian, thermal_correlation

    p = model_params(cfg)
    r = rescale(p)
    if math.isinf(r.beta_hat):
        raise ConfigError("oracle traces need finite beta")
    ham = GridHamiltonian(n_sites=args.sites, a=p.a, J=p.J, b_m=r.b_m,
                          delta_m=r.delta_m, extent=args.extent,
                          n_grid=args.grid)
    taus = [float(t) for t in (args.tau_grid or "0.25,0.5,1.0").split(",")]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "oracle.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "correlation"])
        for tau in taus:
            writer.writerow([tau, repr(thermal_correlation(ham, r.beta_hat, tau))])
    print(path)
    return 0


def cmd_cluster(cfg: dict, out_dir: Path, args) -> int:
    from .cluster import (ClusterInstance, battle_federbush_sum, enumerate_trees,
                          newton_leibniz_report, residual_decay_report)

    check = args.check or "trees"
    if check == "trees":
        payload = {"orders": {}}
        for n in range(2, 7):
            trees = enumerate_trees(n)
            payload["orders"][str(n)] = {
                "count": len(trees),
                "factorial": math.factorial(n - 1),
                "incidence_sum_ok": all(sum(t.incidence_counts) == n - 1 for t in trees),
            }
        payload["ok"] = all(v["count"] == v["factorial"] and v["incidence_sum_ok"]
                            for v in payload["orders"].values())
    elif check == "bf":
        payload = {"orders": {}}
        for n in range(2, 8):
            total = battle_federbush_sum(n)
            loose = battle_federbush_sum(n, with_factorials=False)
            payload["orders"][str(n)] = {
                "sum": str(total), "bound": 4 ** n,
                "ok": total <= 4 ** n,
                "no_factorial_sum": str(loose),
                "no_factorial_ok": float(loose) <= math.e ** n,
            }
        payload["ok"] = all(v["ok"] and v["no_factorial_ok"]
                            for v in payload["orders"].values())
    elif check in ("newton-leibniz", "residuals"):
        p = model_params(cfg)
        mode = RodMode.HIGH_TEMPERATURE if cfg["mode"] == "highT" else RodMode.LOW_TEMPERATURE
        ens = build_ensemble(p, cfg, bc=periodic_bc())
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
            split = rep.split_total()
            payload = {
                "direct": rep.direct, "term_one": rep.term_one,
                "remainder_ibp": rep.remainder_ibp, "remainder_fd": rep.remainder_fd,
                "split_total": split,
                "sigma_gap": abs(rep.direct[0] - split[0]) /
                             math.hypot(rep.direct[1], split[1]),
            }
            payload["ok"] = payload["sigma_gap"] < 4.0
        else:
            start = time.perf_counter()
            rep = residual_decay_report(
                inst, cfg.get("n_max", cfg["order"]), cfg["samples"], cfg["samples"],
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
    else:
        raise ConfigError(f"unknown cluster check {check!r}")
    _emit(out_dir, f"cluster_{check.replace('-', '_')}.json", payload)
    return 0 if payload.get("ok", True) else 1


def cmd_uniqueness(cfg: dict, out_dir: Path, args) -> int:
    from .sampler import uniqueness_gap

    p = model_params(cfg)
    r = rescale(p)
    sizes = [int(s) for s in (args.sizes or "8,16").split(",")]
    n_slices = max(2, round(cfg["slices_per_unit"] * r.beta_hat))

    def make_pair(n):
        lat = Lattice(nu=1, dims=(n,), boundary=Boundary.DIRICHLET)
        xi = {(-1,): np.ones((n_slices, p.d)), (n,): np.ones((n_slices, p.d))}
        eta = {(-1,): np.zeros((n_slices, p.d)), (n,): np.zeros((n_slices, p.d))}
        common = dict(lattice=lat, a=p.a, J=p.J, beta_hat=r.beta_hat,
                      n_slices=n_slices, b_m=r.b_m, delta_m=r.delta_m, d=p.d)
        return (Ensemble(**common, bc=tempered_bc(xi)),
                Ensemble(**common, bc=tempered_bc(eta)))

    rows = uniqueness_gap(make_pair, lambda n: (n // 2,), tau=0.0,
                          lattice_sizes=sizes, n_samples=cfg["samples"],
                          seed=cfg["seed"])
    gaps = [abs(row["gap"]) for row in rows]
    payload = {"rows": rows,
               "monotone_decrease": all(gaps[i] > gaps[i + 1]
                                        for i in range(len(gaps) - 1))}
    _emit(out_dir, "uniqueness.json", payload)
    return 0


def cmd_order_param(cfg: dict, out_dir: Path, args) -> int:
    from .sampler import order_parameter

    p = model_params(cfg)
    r = rescale(p)
    h_values = [float(h) for h in (args.h_values or "0.1,0.05,0").split(",")]
    sizes = [int(s) for s in (args.sizes or str(p.dims[0])).split(",")]
    n_slices = max(2, round(cfg["slices_per_unit"] * r.beta_hat))

    def make_ensemble(n, h):
        lat = Lattice(nu=1, dims=(n,))
        return Ensemble(lattice=lat, a=p.a, J=p.J, beta_hat=r.beta_hat,
                        n_slices=n_slices, b_m=r.b_m, delta_m=r.delta_m,
                        d=p.d, h_hat=tuple(r.alpha * h * e for e in _unit(p.d)),
                        bc=periodic_bc())

    rows = order_parameter(make_ensemble, r.alpha, h_values, sizes,
                           cfg["samples"], cfg["seed"])
    payload = {"rows": rows, "extrapolated": rows[-1]["sigma"],
               "extrapolated_stderr": rows[-1]["stderr"]}
    _emit(out_dir, "order_param.json", payload)
    return 0


def _unit(d: int):
    e = [0.0] * d
    e[0] = 1.0
    return e


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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anhcrystal",
        description="Euclidean Gibbs measure toolkit for a quantum anharmonic crystal",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", type=int, help="override the run seed")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("thresholds")

    cov = sub.add_parser("covariance")
    cov.add_argument("--n-max", type=int, dest="n_max")
    cov.add_argument("--tau-grid")
    cov.add_argument("--nu", type=int)
    cov.add_argument("--dims")
    cov.add_argument("--boundary", choices=["periodic", "dirichlet"])

    smp = sub.add_parser("sample")
    smp.add_argument("--samples", type=int)
    smp.add_argument("--slices-per-unit", type=int, dest="slices_per_unit")
    smp.add_argument("--backend", choices=["reweight", "mcmc"])
    smp.add_argument("--observable")
    smp.add_argument("--bc")
    smp.add_argument("--nu", type=int)
    smp.add_argument("--dims")

    clu = sub.add_parser("cluster")
    clu.add_argument("--order", type=int)
    clu.add_argument("--mode", choices=["lowT", "highT"])
    clu.add_argument("--observable")
    clu.add_argument("--check", choices=["trees", "bf", "newton-leibniz", "residuals"])
    clu.add_argument("--samples", type=int)

    orc = sub.add_parser("oracle")
    orc.add_argument("--sites", type=int, choices=[1, 2], default=1)
    orc.add_argument("--grid", type=int, default=512)
    orc.add_argument("--extent", type=float, default=8.0)
    orc.add_argument("--tau-grid")

    uni = sub.add_parser("uniqueness")
    uni.add_argument("--sizes")
    uni.add_argument("--samples", type=int)

    opar = sub.add_parser("order-param")
    opar.add_argument("--h-values", dest="h_values")
    opar.add_argument("--sizes")
    opar.add_argument("--samples", type=int)

    sub.add_parser("verify")
    return parser


_CONFIG_OVERRIDE_KEYS = ("seed", "samples", "slices_per_unit", "backend",
                         "observable", "bc", "mode", "order", "n_max", "nu",
                         "boundary")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {}
        for key in _CONFIG_OVERRIDE_KEYS:
            if hasattr(args, key) and getattr(args, key) is not None:
                overrides[key] = getattr(args, key)
        if getattr(args, "dims", None):
            overrides["dims"] = tuple(int(x) for x in args.dims.split(","))
        if getattr(args, "n_max", None):
            overrides["matsubara_cutoff"] = args.n_max
        cfg = load_config(args.config, overrides)
        out_dir = Path(args.out)
        write_manifest(out_dir, args.subcommand, cfg, __version__)
        if args.subcommand == "thresholds":
            return cmd_thresholds(cfg, out_dir)
        if args.subcommand == "covariance":
            return cmd_covariance(cfg, out_dir, args)
        if args.subcommand == "sample":
            return cmd_sample(cfg, out_dir, args)
        if args.subcommand == "cluster":
            return cmd_cluster(cfg, out_dir, args)
        if args.subcommand == "oracle":
            return cmd_oracle(cfg, out_dir, args)
        if args.subcommand == "uniqueness":
            return cmd_uniqueness(cfg, out_dir, args)
        if args.subcommand == "order-param":
            return cmd_order_param(cfg, out_dir, args)
        if args.subcommand == "verify":
            return cmd_verify(cfg, out_dir)
        raise ConfigError(f"unknown subcommand {args.subcommand!r}")
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
