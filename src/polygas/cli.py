"""Experiment runner: every verification as a subcommand with JSON config,
deterministic seeding, worker control, and JSON/CSV output.

Exit codes: 0 all checks passed, 2 a statistical (or exact) check failed,
1 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import arrangement as arr_mod
from .arrangement import Arrangement, from_descriptor, subset_labels
from .dimred import (balanced_weight_check, check_asa_dr, check_dr,
                     tonks_series_check, typeD_unbalanced_check)
from .exact_linalg import FieldMismatchError
from .geometry import capped_cylinder_shape, cylinder_shape, sphere_shape
from .matroid import LinearOrder, MatroidView
from .mayer import Z_LIMIT, mmc_d0, mmc_mc, pressure_coefficient, z_score
from .polymer import (G_FUNCTIONS, dump_samples_csv, live_base_table,
                      planar_invariance_check, polymer_svg,
                      project_expectation, safe_projection_expectation,
                      volume_mc)


class CliError(ValueError):
    """Usage or configuration problem; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on usage errors by default; 2 is reserved for
        # failed statistical checks here
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class ExperimentConfig:
    # field order is the order of the "config" echo and of its CSV columns
    family: str = "braid"
    n: int = 3
    d: int = 1
    samples: int = 100_000
    seed: int = 0
    workers: int = 1
    k: int | None = None
    colors: list | None = None
    radii: list | None = None
    normals: list | None = None
    radii_list: list | None = None
    subset: list | None = None
    shape: str = "cylinder"
    length: float = 1.0
    g: str = "const1"
    m_max: int = 3
    orders: int = 0
    safe: bool = False

    def validate(self):
        if self.samples < 1:
            raise CliError("samples must be >= 1")
        if self.workers < 1:
            raise CliError("workers must be >= 1")
        if self.d < 0:
            raise CliError("d must be >= 0")
        if self.orders < 0:
            raise CliError("orders must be >= 0")
        if self.seed < 0:
            raise CliError("seed must be >= 0")

    def descriptor(self) -> dict:
        desc = {"family": self.family}
        if self.family == "widom_rowlinson":
            if not self.colors:
                raise CliError("widom_rowlinson needs --colors")
            desc["colors"] = list(self.colors)
        elif self.family == "custom":
            if not self.normals:
                raise CliError("custom arrangements need normals in --config")
            desc["normals"] = self.normals
        else:
            desc["n"] = self.n
        if self.family == "dowling":
            if self.k is None:
                raise CliError("dowling needs --k")
            desc["k"] = self.k
        if self.radii:
            desc["radii"] = list(self.radii)
        return desc

    def build_arrangement(self) -> Arrangement:
        return from_descriptor(self.descriptor())

    def echo(self) -> dict:
        return {key: value for key, value in asdict(self).items()
                if value is not None}


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",") if v != ""]


# argparse types of the list flags, named in its error messages; an empty
# list counts as a flag not given
def int_list(text: str) -> list | None:
    return [int(v) for v in text.split(",") if v != ""] or None


def float_list(text: str) -> list | None:
    return _floats(text) or None


def float_lists(text: str) -> list | None:
    """semicolon-separated comma lists"""
    return [_floats(part) for part in text.split(";") if part] or None


def _is_float(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# config file values must have their ExperimentConfig field's type: no bool
# for a number, an int or a float for a float
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_float,
    "list": lambda v: isinstance(v, list), "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "float list": lambda v: isinstance(v, list) and all(map(_is_float, v)),
    "rational list": lambda v: isinstance(v, list) and all(
        isinstance(x, str) or _is_float(x) for x in v)}
# the entry type of each list-valued key: a wrong entry would otherwise fail
# deep in the library with a TypeError
_ENTRY_KINDS = {"colors": "int", "subset": "int", "radii": "float",
                "radii_list": "float list", "normals": "rational list"}


def _build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for field in fields(cfg):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config: {exc}") from exc
        if not isinstance(data, dict):
            raise CliError("a config file holds one JSON object")
        for key, value in data.items():
            if key not in cfg.__annotations__:
                raise CliError(f"unknown config key {key!r}")
            kind, _, optional = cfg.__annotations__[key].partition(" | ")
            if not (_TYPE_CHECKS[kind](value) or value is None and optional):
                raise CliError(f"config key {key!r} must be of type {kind}, "
                               f"not {value!r}")
            if kind == "list" and value is not None:
                entry = _ENTRY_KINDS[key]
                if not all(map(_TYPE_CHECKS[entry], value)):
                    raise CliError(f"entries of config key {key!r} must be "
                                   f"of type {entry}, not {value!r}")
            setattr(cfg, key, value)  # file overrides flags
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# subcommand implementations: (cfg, args) -> (payload dict, passed bool)
# --------------------------------------------------------------------------

def _cmd_chi(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    view = MatroidView(arr)
    chi = view.chi_at_zero()
    default_order = LinearOrder.default(arr.size)
    rows = [{"order": list(default_order.elements),
             "safe_bases": view.safe_base_count(order=default_order)}]
    rng = random.Random(cfg.seed)
    for _ in range(cfg.orders):
        order = LinearOrder.shuffled(arr.size, rng)
        rows.append({"order": list(order.elements),
                     "safe_bases": view.safe_base_count(order=order)})
    sign_ok = all(r["safe_bases"] == (-1) ** arr.ambient_dim * chi for r in rows)
    payload = {"chi_at_zero": chi, "rank": arr.ambient_dim,
               "orders": rows, "sign_relation_ok": sign_ok}
    return payload, sign_ok


def _cmd_bases(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    view = MatroidView(arr)
    bases = [{"mask": b, "hyperplanes": list(subset_labels(arr, b))}
             for b in view.bases()]
    return {"count": len(bases), "bases": bases}, True


def _subset_mask(cfg: ExperimentConfig, arr: Arrangement) -> int:
    if cfg.subset is None:
        return arr.ground_mask
    mask = 0
    for e in cfg.subset:
        if not 0 <= e < arr.size:
            raise CliError(f"subset element {e} outside the ground set")
        mask |= 1 << e
    return mask


def _cmd_mmc(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    view = MatroidView(arr)
    mask = _subset_mask(cfg, arr)
    if cfg.d == 0:
        return {"subset_mask": mask, "exact": True,
                "value": mmc_d0(view, mask)}, True
    est = mmc_mc(view, mask, cfg.d, cfg.samples, cfg.seed, cfg.workers)
    return {"subset_mask": mask, "exact": False,
            "estimate": est.to_json_dict("mmc")}, True


def _cmd_pressure(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    view = MatroidView(arr)
    est = pressure_coefficient(view, cfg.d, cfg.samples, cfg.seed, cfg.workers)
    return {"exact": cfg.d == 0,
            "estimate": est.to_json_dict("pressure coefficient")}, True


def _strata(view: MatroidView, radii) -> dict:
    """The ball-polymer strata sampled and skipped at these radii, from the
    kernel's own `live_base_table`.  Skipped strata are provably empty, and
    the budget is split over the sampled ones, so an estimate's n_samples
    is (samples // sampled) * sampled, below --samples when any is
    skipped."""
    sampled = live_base_table(view, radii).masks.size
    return {"sampled": sampled, "skipped": view.base_table.masks.size - sampled}


def _cmd_polymer_volume(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    dim = cfg.d
    if dim < 2:
        raise CliError("polymer-volume interprets --d as the polymer "
                       "dimension, which must be >= 2")
    view = MatroidView(arr)
    est = volume_mc(view, dim, cfg.samples, cfg.seed, cfg.workers)
    if args.dump_samples:
        dump_samples_csv(args.dump_samples, view, dim, min(cfg.samples, 200),
                         cfg.seed)
    if args.svg:
        if dim != 2:
            raise CliError("SVG snapshots are drawn for 2-D polymers")
        polymer_svg(args.svg, view, cfg.seed)
    return {"dim": dim, "estimate": est.to_json_dict("polymer volume"),
            "strata": _strata(view, arr.radii)}, True


def _cmd_invariance(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    if not cfg.radii_list:
        raise CliError("invariance needs --radii-list, e.g. '1,1,1;1,2,5'")
    view = MatroidView(arr)
    report = planar_invariance_check(view, cfg.radii_list, cfg.samples,
                                     cfg.seed, cfg.workers)
    payload = report.to_json_dict()
    payload["strata"] = [_strata(view, radii) for radii in report.radii_list]
    payload["_csv_rows"] = [
        {"radii": ";".join(map(str, radii)), "mean": est.mean,
         "stderr": est.stderr, "target": report.target, "z_to_target": z}
        for radii, est, z in zip(report.radii_list, report.estimates,
                                 report.z_to_target)]
    return payload, report.passed


def _cmd_dr_check(cfg: ExperimentConfig, args):
    report = check_dr(cfg.build_arrangement(), cfg.d, cfg.samples, cfg.seed,
                      cfg.workers)
    return report.to_json_dict(), report.passed


def _cmd_tonks(cfg: ExperimentConfig, args):
    report = tonks_series_check(cfg.m_max, cfg.samples, cfg.seed, cfg.workers)
    return report.to_json_dict(), report.passed


def _cmd_type_d(cfg: ExperimentConfig, args):
    report = typeD_unbalanced_check(cfg.n, cfg.d, cfg.samples, cfg.seed,
                                    cfg.workers)
    ok = report.combinatorial_ok and report.dr.passed
    payload = report.to_json_dict()
    payload["balanced_weight_ok"] = balanced_weight_check(min(cfg.n + 1, 5))
    return payload, ok and payload["balanced_weight_ok"]


def _shapes_for(cfg: ExperimentConfig, arr: Arrangement):
    dim = cfg.d + 2
    makers = {"sphere": lambda: sphere_shape(dim),
              "cylinder": lambda: cylinder_shape(dim, cfg.length),
              "capped_cylinder": lambda: capped_cylinder_shape(dim, cfg.length)}
    if cfg.shape not in makers:
        raise CliError(f"unknown shape {cfg.shape!r}")
    return [makers[cfg.shape]() for _ in range(arr.size)]


def _cmd_asa_dr(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    report = check_asa_dr(arr, _shapes_for(cfg, arr), cfg.d, cfg.samples,
                          cfg.seed, cfg.workers)
    payload = report.to_json_dict()
    payload["shape"] = {"kind": cfg.shape, "dim": cfg.d + 2,
                        "length": cfg.length}
    return payload, report.passed


def _cmd_project_law(cfg: ExperimentConfig, args):
    arr = cfg.build_arrangement()
    view = MatroidView(arr)
    report = project_expectation(view, cfg.d, cfg.g, cfg.samples, cfg.seed,
                                 cfg.workers)
    payload = report.to_json_dict()
    passed = report.passed
    if cfg.safe:
        order = LinearOrder.default(arr.size)
        safe_est = safe_projection_expectation(view, cfg.d, cfg.g, order,
                                               cfg.samples, cfg.seed + 7,
                                               cfg.workers)
        z_safe = z_score(safe_est, report.mmc_side)
        payload["safe_side"] = safe_est.to_json_dict("safe-base projection")
        payload["z_safe_vs_mmc"] = z_safe
        passed = passed and abs(z_safe) < Z_LIMIT
        payload["pass"] = passed
    return payload, passed


_COMMANDS = {
    "chi": _cmd_chi,
    "bases": _cmd_bases,
    "mmc": _cmd_mmc,
    "pressure-coeff": _cmd_pressure,
    "invariance": _cmd_invariance,
    "dr-check": _cmd_dr_check,
    "tonks": _cmd_tonks,
    "type-d": _cmd_type_d,
    "asa-dr": _cmd_asa_dr,
    "project-law": _cmd_project_law,
    "polymer-volume": _cmd_polymer_volume,
}


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _flatten(prefix: str, value, out: dict):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out[prefix] = value


def _emit(payload: dict, fmt: str, out_path: str | None):
    rows = payload.pop("_csv_rows", None)
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        if rows is None:
            flat: dict = {}
            _flatten("", payload, flat)
            rows = [flat]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([json.dumps(v) if isinstance(v, (list, dict)) else v
                             for v in row.values()])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--family", choices=sorted(arr_mod._FAMILIES))
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--colors", type=int_list, help="comma list, e.g. 2,2")
    sub.add_argument("--d", type=int)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--radii", type=float_list, help="comma list of radii")
    sub.add_argument("--out")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--config",
                     help="JSON config file; file values override flags")


def build_parser() -> _Parser:
    parser = _Parser(prog="polygas",
                     description="matroid / polymer / reduction experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "chi":
            sub.add_argument("--orders", type=int,
                             help="extra random linear orders to report")
        if name == "mmc":
            sub.add_argument("--subset", type=int_list,
                             help="comma list of hyperplane indices")
        if name == "invariance":
            sub.add_argument("--radii-list", type=float_lists,
                             help="semicolon-separated radii assignments")
        if name == "tonks":
            sub.add_argument("--m-max", type=int)
        if name == "asa-dr":
            sub.add_argument("--shape",
                             choices=("sphere", "cylinder", "capped_cylinder"))
            sub.add_argument("--length", type=float)
        if name == "project-law":
            sub.add_argument("--g", choices=sorted(G_FUNCTIONS))
            sub.add_argument("--safe", action="store_true", default=None)
        if name == "polymer-volume":
            sub.add_argument("--svg", help="write a 2-D snapshot here")
            sub.add_argument("--dump-samples")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        started = time.perf_counter()
        payload, passed = _COMMANDS[args.command](cfg, args)
        payload["config"] = cfg.echo()
        payload.setdefault("wall_time", time.perf_counter() - started)
        _emit(payload, args.format, args.out)
        return 0 if passed else 2
    except (ValueError, FieldMismatchError) as exc:
        # CliError and the arrangement, spanning, matroid, singular-system and
        # input-range errors are all ValueErrors: the run's inputs are at fault
        print(f"polygas: error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
