"""Scenario configuration and unit conversion helpers.

All powers inside the library are in watts; sweeps over transmit power
convert their dBm values with ``dbm_to_watts``.
"""
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

SECTOR_INNER_RADIUS = 20.0  # m, inner radius of the users' annulus sector


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from a label and indices (never Python's hash)."""
    digest = hashlib.sha256(repr(tuple(parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, dimensions, powers and solver tolerances for one scenario.

    Defaults: 40 dBm transmit power budget, -110 dBm noise at users and
    eavesdropper, 1e-3 convergence tolerances, 500 m cell with the blocked
    sector served by an IRS 50 m from the BS, eavesdropper 250 m from the IRS.
    """

    num_users: int = 3
    num_bs_antennas: int = 6
    num_irs_elements: int = 6
    p_max: float = 10.0            # watts (40 dBm)
    noise_user: float = 1e-14      # watts (-110 dBm)
    noise_eve: float = 1e-14       # watts (-110 dBm)
    cell_radius: float = 500.0     # m
    r_re: float = 250.0            # IRS-eavesdropper distance, m
    bs_irs_distance: float = 50.0  # m
    pl0_db: float = 30.0           # reference loss at 1 m, dB
    pl_exp_bs_irs: float = 2.2
    pl_exp_irs_user: float = 2.8
    pl_exp_irs_eve: float = 2.8
    rng_seed: int = 0
    tol_manifold: float = 1e-3     # gradient-norm tolerance of the phase optimizer
    tol_outer: float = 1e-3        # |f change| tolerance of the alternating loop
    max_outer_iters: int = 20
    sca_max_iters: int = 30

    def __post_init__(self) -> None:
        # each field is typed by its annotation: rng_seed 1.0 would hash to
        # other seeds than 1 (derive_seed hashes the repr), and a bool is an
        # int to Python but not a count, a seed or a power. NaN fails every
        # comparison below, so it is rejected here first
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = int if f.type is int else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = "an integer" if f.type is int else "a real number"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            if f.type is float:  # content_hash hashes the noise powers' repr: 1 is not 1.0
                try:
                    value = float(value)
                except OverflowError:  # an int beyond the float range
                    raise ValueError(
                        f"{f.name} must fit in a float, got an integer of {value.bit_length()} bits"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value}")
                object.__setattr__(self, f.name, value)
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_bs_antennas <= 1:
            raise ValueError(
                f"num_bs_antennas must be > 1, got {self.num_bs_antennas}"
            )
        if self.num_irs_elements < 1:
            raise ValueError(
                f"num_irs_elements must be >= 1, got {self.num_irs_elements}"
            )
        if self.p_max <= 0:
            raise ValueError(f"p_max must be positive, got {self.p_max}")
        if self.noise_user <= 0 or self.noise_eve <= 0:
            raise ValueError("noise powers must be positive")
        if self.cell_radius < SECTOR_INNER_RADIUS:  # the users' sector starts there
            raise ValueError(f"cell_radius must be >= {SECTOR_INNER_RADIUS}, got {self.cell_radius}")
        for name in ("r_re", "bs_irs_distance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tol_manifold <= 0 or self.tol_outer <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer_iters < 1 or self.sca_max_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if not (0 <= self.rng_seed < 2 ** 64):
            raise ValueError("rng_seed must fit in an unsigned 64-bit integer")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("scenario config JSON must be an object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
