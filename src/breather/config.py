"""Run configuration: JSON material/grid/series parameters -> live objects.

A config is a flat JSON object.  Material fields: ``model`` (lorentz |
drude for the dispersive side), ``c_L``/``c_D``, ``gamma``,
``omega_star``, ``T`` or ``j`` (memory window; ``j`` means T = j pi/c_*),
``alpha`` (non-dispersive side), ``c2``, ``c3``, ``gamma_tilde``,
``omega_star_tilde``, ``T_N``, ``eps0``, ``mu0``, and
``nonlinear_sides``.  Run fields: ``k``, ``grid`` {d, N}, ``eps``,
``nu_max``, ``solver``.  Unknown keys are kept in ``raw`` and ignored.

``c2``/``c3`` accept either a scalar (diagonal coupling tensor) or fully
nested lists of shape (3,3,3) / (3,3,3,3).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError
from .pencil import PencilContext, newton_eigenvalue, untruncated_eigenvalues
from .susceptibility import (
    Constant,
    MaterialInterface,
    NonlinearSusceptibility,
    TruncatedLorentz,
    UntruncatedLorentz,
    drude_model,
    window_T,
)

__all__ = [
    "RunConfig",
    "load_config",
    "config_from_dict",
    "default_config_path",
    "seed_root",
]


def default_config_path():
    """Path to the bundled example configuration."""
    return resources.files("breather").joinpath("data", "example_paper.json")


def _require(data, key, kind):
    if key not in data:
        raise ConfigError(f"config: missing required field '{key}'")
    value = data[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, kind):
        return value
    raise ConfigError(
        f"config: field '{key}' must be {kind.__name__}, got {value!r}"
    )


def _coupling_tensor(value, shape, name):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        tensor = np.zeros(shape)
        for j in range(3):
            tensor[(j,) * len(shape)] = float(value)
        return tensor
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ConfigError(f"config: '{name}' must be a scalar or shape {shape}")
    return arr


def seed_root(probe):
    """Shallowest decaying right-half-plane root of the untruncated n = 1
    dispersion: the seed every eigenvalue refinement starts from."""
    roots = [
        r for r in untruncated_eigenvalues(probe, 1)
        if r.real > 0 and r.imag < 0
    ]
    if not roots:
        raise ConfigError(
            "config: no decaying untruncated eigenvalue with "
            "positive real part to seed from"
        )
    return max(roots, key=lambda r: r.imag)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters plus the constructed material interface."""

    interface: MaterialInterface
    k: float
    grid_d: float
    grid_n: int
    eps: float
    nu_max: int
    solver: str
    T: float | None
    omega0: complex | None
    raw: dict = field(repr=False, default_factory=dict)

    def context(self):
        """Pencil context at the base eigenvalue.

        The seed is the configured ``omega0`` if present, otherwise the
        shallowest right-half-plane root of the untruncated dispersion
        quartic.  With a truncated dispersive side, the seed is
        Newton-polished on the truncated dispersion function.
        """
        probe = PencilContext(self.interface, self.k, None)
        if self.omega0 is not None:
            seed = complex(self.omega0)
        else:
            seed = seed_root(probe)
        if self.T is not None:
            seed = newton_eigenvalue(probe, 1, self.T, seed)
        return PencilContext(self.interface, self.k, seed)


def config_from_dict(data, **overrides):
    """Build a RunConfig from a JSON-style dict.

    Keyword overrides (``eps``, ``nu_max``, ``grid_d``, ``grid_n``,
    ``solver``, ``k``) replace the corresponding config
    fields; ``None`` overrides are ignored.
    """
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    data = dict(data)
    for key, value in overrides.items():
        if value is None:
            continue
        if key in ("grid_d", "grid_n"):
            grid = dict(data.get("grid", {}))
            grid["d" if key == "grid_d" else "N"] = value
            data["grid"] = grid
        else:
            data[key] = value

    eps0 = float(data.get("eps0", 1.0))
    mu0 = float(data.get("mu0", 1.0))
    model = data.get("model", "lorentz")
    gamma = _require(data, "gamma", float)

    T = data.get("T")
    if "j" in data:
        if T is not None:
            raise ConfigError("config: give either 'T' or 'j', not both")
        j = _require(data, "j", int)
        if j < 1 or j % 2 == 0:
            raise ConfigError(f"config: 'j' must be a positive odd integer, got {j}")
        omega_star = _require(data, "omega_star", float)
        if omega_star <= gamma:
            raise ConfigError(
                f"config: need omega_star > gamma, got {omega_star} <= {gamma}"
            )
        T = window_T(j, gamma, omega_star)
    elif T is not None:
        T = float(T)

    if model == "lorentz":
        c_L = _require(data, "c_L", float)
        omega_star = _require(data, "omega_star", float)
        if omega_star <= gamma:
            raise ConfigError(
                f"config: need omega_star > gamma, got {omega_star} <= {gamma}"
            )
        if T is None:
            minus = UntruncatedLorentz(c_L=c_L, gamma=gamma, omega_star=omega_star)
        else:
            minus = TruncatedLorentz(c_L=c_L, gamma=gamma, omega_star=omega_star, T=T)
    elif model == "drude":
        minus = drude_model(_require(data, "c_D", float), gamma, T)
    else:
        raise ConfigError(f"config: unknown model '{model}'")

    plus = Constant(alpha=_require(data, "alpha", float))

    nl = None
    sides = data.get("nonlinear_sides", [])
    if not isinstance(sides, list) or any(
        s not in ("minus", "plus") for s in sides
    ):
        raise ConfigError(
            "config: 'nonlinear_sides' must be a list drawn from "
            "['minus', 'plus']"
        )
    if sides:
        nl = NonlinearSusceptibility(
            c2=_coupling_tensor(data.get("c2", 0.0), (3, 3, 3), "c2"),
            c3=_coupling_tensor(data.get("c3", 0.0), (3, 3, 3, 3), "c3"),
            gamma_tilde=_require(data, "gamma_tilde", float),
            omega_star_tilde=_require(data, "omega_star_tilde", float),
            T_N=_require(data, "T_N", float),
        )
        if T is not None and not nl.T_N < T / (2.0 * math.sqrt(3.0)):
            raise ConfigError(
                f"config: T_N = {nl.T_N} must be < T/(2 sqrt(3)) = "
                f"{T / (2.0 * math.sqrt(3.0)):.6g}"
            )

    interface = MaterialInterface(
        minus=minus,
        plus=plus,
        nl_minus=nl if "minus" in sides else None,
        nl_plus=nl if "plus" in sides else None,
        eps0=eps0,
        mu0=mu0,
    )

    grid = data.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("config: 'grid' must be an object {d, N}")
    grid_d = float(grid.get("d", 40.0))
    grid_n = int(grid.get("N", 2000))
    if grid_n % 2 != 0:
        grid_n -= 1          # odd values are node counts; N = nodes - 1
    if grid_d <= 0 or grid_n < 4:
        raise ConfigError(f"config: invalid grid d={grid_d}, N={grid_n}")

    nu_max = int(data.get("nu_max", 5))
    if nu_max < 1:
        raise ConfigError(f"config: nu_max must be >= 1, got {nu_max}")
    solver = data.get("solver", "fd")
    if solver not in ("fd", "analytic"):
        raise ConfigError(f"config: solver must be 'fd' or 'analytic', got {solver!r}")

    omega0 = data.get("omega0")
    if omega0 is not None:
        if isinstance(omega0, list) and len(omega0) == 2:
            omega0 = complex(omega0[0], omega0[1])
        else:
            raise ConfigError("config: 'omega0' must be a [real, imag] pair")

    return RunConfig(
        interface=interface,
        k=_require(data, "k", float),
        grid_d=grid_d,
        grid_n=grid_n,
        eps=float(data.get("eps", 0.5)),
        nu_max=nu_max,
        solver=solver,
        T=T,
        omega0=omega0,
        raw=data,
    )


def load_config(path=None, **overrides):
    """Read a JSON config file (bundled example when ``path`` is None)."""
    if path is None:
        text = default_config_path().read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return config_from_dict(data, **overrides)
